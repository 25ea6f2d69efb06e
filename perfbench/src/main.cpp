// perfbench: runs one Wang-Landau workload of the repository benchmark and
// writes its raw record (samples, spans, counter deltas) as JSON.
//
//   perfbench --workload paper_wl --seed 1 --steps 600 --trace 0 --out r.json
//
// The OpenMP team size and wait policy come from OMP_NUM_THREADS and
// OMP_WAIT_POLICY, which the caller sets explicitly (perfbench/run.py); both
// are recorded. perfbench/ledger.py turns the record into metrics.
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --steps N "
               "[--setup-runs N] [--trace 0|1] --out PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--steps") || !args.count("--out"))
    return usage();

  try {
    perfbench::RunConfig config;
    config.workload = args["--workload"];
    config.seed = std::stoull(args["--seed"]);
    config.steps = std::stoull(args["--steps"]);
    if (args.count("--setup-runs"))
      config.setup_runs = std::stoul(args["--setup-runs"]);
    config.trace = args.count("--trace") && args["--trace"] == "1";
    if (config.steps == 0 || config.setup_runs == 0) return usage();

    using wlsms::obs::JsonValue;
    JsonValue::Object object = perfbench::run_workload(config);
    const char* policy = std::getenv("OMP_WAIT_POLICY");
    object["workload"] = JsonValue(config.workload);
    object["seed"] = JsonValue(config.seed);
    object["steps_requested"] = JsonValue(config.steps);
    object["trace"] = JsonValue(config.trace);
    object["omp_team"] = JsonValue(
        static_cast<std::uint64_t>(omp_get_max_threads()));
    object["omp_wait_policy"] =
        JsonValue(std::string(policy ? policy : "(default)"));
    object["nproc"] = JsonValue(
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    object["build_type"] = JsonValue(std::string(PERFBENCH_BUILD_TYPE));

    std::ofstream out(args["--out"]);
    out << JsonValue(std::move(object)).dump() << '\n';
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args["--out"].c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
