#!/usr/bin/env python3
"""Repository benchmark: one Wang-Landau workload per run.

    python3 perfbench/run.py --workload paper_wl --seed 1 --seconds 10 --trace 0

Builds the harness and the wlsms libraries it links from source into
.bench_build/ (first run only), runs the workload in its own process with an
explicit OpenMP team and wait policy, checks its outputs, and prints as the
last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger
(perfbench/ledger.py). The line before it records the run's provenance:
seed, team size, wait policy, nproc, build type, the tail percentile and its
sample count. The raw record is kept in .bench_build/runs/.

Each run does a fixed amount of work: --seconds times the workload's nominal
rate below, so every run with the same --seconds completes the same number of
WL steps and every percentile rests on the same sample count.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# steps_per_s: nominal WL steps per second on a 4-core host, which sizes the
# fixed work. team: OpenMP threads per process, so ranks x team <= nproc.
# setup_runs: set-ups timed per run (setup_s is their median).
WORKLOADS = {
    # LsmsSolver::energies' atom loop gets the full team.
    "paper_wl": {"steps_per_s": 44, "team": "nproc", "setup_runs": 15},
    # The daemon solves on its own thread; four client threads only wait.
    "serve_mix": {"steps_per_s": 48, "team": 1, "setup_runs": 9},
    # 2 groups x 2 forked ranks, each serial.
    "shard_fe16": {"steps_per_s": 3200, "team": 1, "setup_runs": 31},
}
DRIVER_STEP_MULTIPLE = 4  # serve_mix splits the steps over four drivers
WAIT_POLICY = "PASSIVE"   # spin-waiting teams collapse under oversubscription
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the harness up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)


def run_harness(workload, seed, steps, trace):
    spec = WORKLOADS[workload]
    team = os.cpu_count() if spec["team"] == "nproc" else spec["team"]
    env = dict(os.environ, OMP_NUM_THREADS=str(team),
               OMP_WAIT_POLICY=WAIT_POLICY, OMP_DYNAMIC="false")
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    out = os.path.join(BUILD, "runs", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    if os.path.exists(out):
        os.remove(out)
    subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                    "--steps", str(steps), "--setup-runs", str(spec["setup_runs"]),
                    "--trace", str(trace), "--out", out],
                   check=True, env=env, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    with open(out) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    rate = WORKLOADS[args.workload]["steps_per_s"]
    steps = max(1, round(args.seconds * rate / DRIVER_STEP_MULTIPLE)) * DRIVER_STEP_MULTIPLE
    try:
        build()
        record = run_harness(args.workload, args.seed, steps, args.trace)
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench:", e)
        return 1

    attempted, failed, kinds = ledger.accounting(record)
    info = {key: record[key] for key in ("workload", "seed", "omp_team", "omp_wait_policy",
                                         "nproc", "build_type", "steps_requested")}
    info["failures"] = kinds
    if args.trace:
        values, layers_s = ledger.per_layer(record)
        units = {name: spec[0] for name, spec in ledger.PER_LAYER.items()}
        info["layer_self_s"] = layers_s
        info["traced_wall_s"] = sum(record["pass"]["thread_wall_s"])
        info["ledger_tolerance"] = ledger.LEDGER_TOLERANCE
    else:
        values, latency = ledger.end_to_end(record)
        units = ledger.END_TO_END_UNITS
        layers_s = None
        info["latency"] = {k: v for k, v in latency.items() if k not in ("p50", "tail")}
        info["setup_runs"] = len(record["setup_s"])
        info["children_peak_rss_mb"] = record["children_peak_rss_mb"]
    problems = ledger.checks(record, layers_s)
    info["check_failures"] = problems
    for problem in problems:
        log("perfbench: check failed:", problem)

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
