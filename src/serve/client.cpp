#include "serve/client.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/socket.hpp"
#include "common/error.hpp"
#include "common/serial.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace wlsms::serve {

ServeClient::ServeClient(const std::string& address, ClientOptions options)
    : options_(std::move(options)) {
  comm::Socket sock =
      comm::connect_with_timeout(address, options_.connect_timeout);

  ServeHello hello;
  hello.tenant = options_.tenant;
  hello.resume_session = options_.resume_session;
  hello.resume_token = options_.resume_token;
  hello.trace_node = obs::local_trace_node();
  hello.t0_us = obs::trace_now_us();
  comm::Message hello_frame;
  hello_frame.tag = kTagServeHello;
  hello_frame.payload = encode_serve_hello(hello);
  const std::vector<std::byte> bytes = comm::frame_bytes(hello_frame);
  const auto deadline = comm::StreamClock::now() + options_.handshake_timeout;
  if (!comm::write_all(sock.get(), bytes.data(), bytes.size(), deadline))
    throw comm::CommError("serve client: hello write failed");

  // Exactly one frame at a time: the daemon may queue frames (replayed
  // results, say) right behind the welcome, and those belong to retrieve().
  comm::Message reply = comm::read_one_frame(sock.get(), deadline);
  while (reply.tag == comm::kTagHeartbeat)
    reply = comm::read_one_frame(sock.get(), deadline);
  const std::uint64_t t3_us = obs::trace_now_us();  // welcome receipt time
  if (reply.tag == kTagServeReject)
    throw comm::CommError("serve client: handshake rejected by daemon");
  if (reply.tag != kTagServeWelcome)
    throw comm::CommError("serve client: unexpected handshake reply tag " +
                          std::to_string(reply.tag));
  ServeWelcome welcome;
  try {
    welcome = decode_serve_welcome(reply.payload);
  } catch (const serial::SerializationError& error) {
    throw comm::CommError(std::string("serve client: corrupt welcome: ") +
                          error.what());
  }
  session_ = welcome.session;
  resume_token_ = welcome.resume_token;
  n_atoms_ = static_cast<std::size_t>(welcome.n_atoms);
  resumed_ = welcome.resumed;
  // The welcome closes the four-timestamp clock probe the hello opened:
  // offset = daemon clock - client clock, so the client's trace file can be
  // shifted into the daemon's timebase by tools/trace_merge.py.
  if (welcome.trace_node != 0) {
    const double offset_us =
        ((static_cast<double>(welcome.t1_us) -
          static_cast<double>(hello.t0_us)) +
         (static_cast<double>(welcome.t2_us) - static_cast<double>(t3_us))) /
        2.0;
    obs::set_clock_offset(offset_us, welcome.trace_node);
    obs::Registry::instance().gauge("comm.clock_offset_us").set(offset_us);
  }
  // A resumed session already owes us results: the replayed ones and the
  // re-enqueued requests (some of which may come back as rejects).
  outstanding_ =
      static_cast<std::size_t>(welcome.n_replayed + welcome.n_pending);
  fd_ = sock.release();
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServeClient::abort_socket() {
  if (fd_ < 0) return;
  (void)::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_ = -1;
}

void ServeClient::submit(wl::EnergyRequest request) {
  if (fd_ < 0) throw comm::CommError("serve client: connection is closed");
  comm::Message message;
  message.tag = kTagServeSubmit;
  message.payload = encode_serve_submit(request);
  const std::vector<std::byte> bytes = comm::frame_bytes(message);
  if (!comm::write_all(fd_, bytes.data(), bytes.size(),
                       comm::StreamClock::now() + options_.send_deadline)) {
    abort_socket();
    throw comm::CommError("serve client: submit write failed");
  }
  in_flight_[request.ticket] = {request.walker, obs::trace_now_us()};
  ++outstanding_;
}

wl::EnergyResult ServeClient::pop_completed(const comm::Message& frame) {
  if (frame.tag == kTagServeResult) {
    const ServeResultFrame reply = decode_serve_result_frame(frame.payload);
    const auto it = in_flight_.find(reply.result.ticket);
    if (it != in_flight_.end()) {
      // Wire time = round trip minus the daemon's own stage vector: what
      // the network (plus daemon scheduling slack) cost this request.
      const std::uint64_t now_us = obs::trace_now_us();
      const std::uint64_t round_trip_us =
          now_us > it->second.submitted_us ? now_us - it->second.submitted_us
                                           : 0;
      const std::uint64_t daemon_us = reply.stages.queue_us +
                                      reply.stages.solve_us +
                                      reply.stages.serialize_us;
      obs::Registry::instance()
          .histogram("serve.client.wire_ms",
                     obs::exponential_bounds(0.01, 4.0, 12))
          .observe(static_cast<double>(round_trip_us > daemon_us
                                           ? round_trip_us - daemon_us
                                           : 0) /
                   1000.0);
      in_flight_.erase(it);
    }
    --outstanding_;
    return reply.result;
  }
  // ServeReject: admission control refused the request; surface it through
  // the same failed-result path a dead rank uses.
  const ServeReject reject = decode_serve_reject(frame.payload);
  wl::EnergyResult result;
  result.ticket = reject.ticket;
  const auto it = in_flight_.find(reject.ticket);
  result.walker = it == in_flight_.end() ? 0 : it->second.walker;
  if (it != in_flight_.end()) in_flight_.erase(it);
  result.failed = true;
  --outstanding_;
  return result;
}

wl::EnergyResult ServeClient::retrieve() {
  if (outstanding_ == 0)
    throw Error("serve client: retrieve() with nothing outstanding");
  if (fd_ < 0) throw comm::CommError("serve client: connection is closed");

  const auto deadline =
      comm::StreamClock::now() + options_.retrieve_timeout;
  comm::Message frame;
  while (true) {
    try {
      while (rx_.pop(frame)) {
        if (frame.tag == comm::kTagHeartbeat) continue;
        if (frame.tag == kTagServeResult || frame.tag == kTagServeReject)
          return pop_completed(frame);
        throw comm::CommError("serve client: unexpected frame tag " +
                              std::to_string(frame.tag));
      }
    } catch (const serial::SerializationError& error) {
      // Corrupt payload or corrupt frame length: the stream is unusable.
      abort_socket();
      throw comm::CommError(std::string("serve client: corrupt frame: ") +
                            error.what());
    } catch (const comm::CommError&) {
      abort_socket();
      throw;
    }

    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - comm::StreamClock::now());
    if (remaining.count() <= 0)
      throw comm::CommError("serve client: retrieve timed out");
    struct pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0)
      throw comm::CommError("serve client: retrieve timed out");
    char buffer[65536];
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n == 0) {
      abort_socket();
      throw comm::CommError("serve client: daemon closed the connection");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        continue;
      abort_socket();
      throw comm::CommError(std::string("serve client: read failed: ") +
                            std::strerror(errno));
    }
    rx_.push(buffer, static_cast<std::size_t>(n));
  }
}

}  // namespace wlsms::serve
