// RequestScheduler unit tests: admission control (bounded pending queue +
// per-session quota), round-robin dispatch order across sessions,
// take_session teardown, and — the load-bearing property — served energies
// bit-identical to the synchronous reference service and the solver.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "wl/energy_function.hpp"

namespace wlsms::serve {
namespace {

std::shared_ptr<const lsms::LsmsSolver> small_solver() {
  static const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
  return solver;
}

wl::EnergyRequest request_for(std::uint64_t ticket, Rng& rng) {
  wl::EnergyRequest request;
  request.walker = static_cast<std::size_t>(ticket % 4);
  request.ticket = ticket;
  request.config =
      spin::MomentConfiguration::random(small_solver()->n_atoms(), rng);
  return request;
}

TEST(ServeScheduler, AdmissionEnforcesQuotaAndQueueBound) {
  ServeLimits limits;
  limits.max_pending = 4;
  limits.max_session_outstanding = 2;
  RequestScheduler scheduler(small_solver(), limits);
  Rng rng(601);

  using Admission = RequestScheduler::Admission;
  EXPECT_EQ(scheduler.submit(1, request_for(1, rng)), Admission::kAccepted);
  EXPECT_EQ(scheduler.submit(1, request_for(2, rng)), Admission::kAccepted);
  // Session 1 is at its quota; the daemon-wide queue still has room.
  EXPECT_EQ(scheduler.submit(1, request_for(3, rng)),
            Admission::kQuotaExceeded);
  EXPECT_EQ(scheduler.submit(2, request_for(4, rng)), Admission::kAccepted);
  EXPECT_EQ(scheduler.submit(3, request_for(5, rng)), Admission::kAccepted);
  EXPECT_EQ(scheduler.pending(), 4u);
  // Queue full beats quota: session 4 has no outstanding work but the
  // daemon-wide bound is reached.
  EXPECT_EQ(scheduler.submit(4, request_for(6, rng)), Admission::kQueueFull);
  EXPECT_EQ(scheduler.session_pending(1), 2u);
  EXPECT_EQ(scheduler.session_pending(4), 0u);
}

TEST(ServeScheduler, RoundRobinDispatchInterleavesSessions) {
  ServeLimits limits;
  limits.max_pending = 32;
  limits.max_session_outstanding = 16;
  RequestScheduler scheduler(small_solver(), limits);
  Rng rng(602);

  std::uint64_t ticket = 1;
  for (int k = 0; k < 6; ++k)
    scheduler.submit(1, request_for(ticket++, rng));  // tickets 1-6
  for (int k = 0; k < 2; ++k)
    scheduler.submit(2, request_for(ticket++, rng));  // tickets 7-8
  for (int k = 0; k < 2; ++k)
    scheduler.submit(3, request_for(ticket++, rng));  // tickets 9-10

  // One request per session per lap, oldest first within a session:
  // sessions 2 and 3 are served within the first three dispatches even
  // though session 1 queued three times as much.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {1, 1}, {2, 7}, {3, 9}, {1, 2}, {2, 8},
      {3, 10}, {1, 3}, {1, 4}, {1, 5}, {1, 6}};
  for (const auto& [session, ticket_served] : expected) {
    const std::optional<RequestScheduler::Completed> done =
        scheduler.run_next();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->session, session);
    EXPECT_EQ(done->result.ticket, ticket_served);
  }
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_FALSE(scheduler.run_next().has_value());
  EXPECT_EQ(scheduler.stats().dispatches, expected.size());
}

TEST(ServeScheduler, EnergiesMatchSynchronousServiceBitExactly) {
  ServeLimits limits;
  limits.max_session_outstanding = 8;
  RequestScheduler scheduler(small_solver(), limits);

  Rng rng(604);
  std::vector<wl::EnergyRequest> requests;
  for (std::uint64_t t = 1; t <= 12; ++t)
    requests.push_back(request_for(t, rng));
  for (std::size_t k = 0; k < requests.size(); ++k)
    ASSERT_EQ(scheduler.submit(1 + k % 3, requests[k]),
              RequestScheduler::Admission::kAccepted);

  std::vector<RequestScheduler::Completed> completed;
  while (const std::optional<RequestScheduler::Completed> done =
             scheduler.run_next())
    completed.push_back(*done);
  ASSERT_EQ(completed.size(), requests.size());

  const wl::LsmsEnergy reference(small_solver());
  wl::SynchronousEnergyService sync(reference);
  for (const RequestScheduler::Completed& done : completed) {
    ASSERT_FALSE(done.result.failed);
    const wl::EnergyRequest& request = requests[done.result.ticket - 1];
    sync.submit(request);
    const wl::EnergyResult expected = sync.retrieve();
    EXPECT_EQ(done.result.energy, expected.energy)
        << "ticket " << done.result.ticket;
    EXPECT_EQ(done.result.energy,
              small_solver()->energies(request.config).total)
        << "ticket " << done.result.ticket;
  }
}

TEST(ServeScheduler, TakeSessionRemovesExactlyThatSessionsRequests) {
  ServeLimits limits;
  limits.max_session_outstanding = 8;
  RequestScheduler scheduler(small_solver(), limits);
  Rng rng(605);
  for (std::uint64_t t = 1; t <= 3; ++t)
    scheduler.submit(5, request_for(t, rng));
  scheduler.submit(6, request_for(10, rng));

  const std::vector<wl::EnergyRequest> taken = scheduler.take_session(5);
  ASSERT_EQ(taken.size(), 3u);
  // Oldest first, and the scheduler stamped the session identity.
  for (std::uint64_t t = 1; t <= 3; ++t) {
    EXPECT_EQ(taken[t - 1].ticket, t);
    EXPECT_EQ(taken[t - 1].session, 5u);
  }
  EXPECT_EQ(scheduler.pending(), 1u);
  EXPECT_EQ(scheduler.session_pending(5), 0u);
  EXPECT_TRUE(scheduler.take_session(5).empty());
}

}  // namespace
}  // namespace wlsms::serve
