"""Turns one raw perfbench record into the benchmark's metrics.

The C++ harness (perfbench/src) times the calls it makes into each layer and
reads the counters the program already exposes; this module does all the
arithmetic on that record: percentiles, span self times, the layer ledger,
the ratios (each with its base stated below) and the failure accounting.

Layers are the repository's modules: wl (driver), spec (speculator), serve
(client, daemon, BatchScheduler), comm (DistributedEnergyService and its
transport), lsms (LsmsSolver), linalg (ZGEMM) and obs.
"""

import statistics

# The boundary each workload's WlDriver talks to; its submits are the
# operations attempted, its results the operations the driver received.
DRIVER_BOUNDARY = {"paper_wl": "spec", "serve_mix": "serve", "shard_fe16": "comm"}

# paper_wl's speculation gates (bench_speculation): hit-rate floor and the
# audited-residual error budget [Ry].
HIT_RATE_FLOOR = 0.40

# Layer self times must sum to the traced wall time within this share.
LEDGER_TOLERANCE = 0.02

# The tail is the highest percentile of this ladder with at least
# TAIL_MIN_BEYOND samples beyond it. The ladder stops at p99: on a shared
# 4-vCPU host, percentiles past it measure other tenants' scheduling.
TAIL_MIN_BEYOND = 10
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wl_steps_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, better, layer, what it should move). A metric
# whose layer a workload does not reach reads 0 on that workload.
PER_LAYER = {
    "wl.driver_self_ms_per_step": ("ms", "lower", "wl",
                                   "wl_steps_per_s on shard_fe16"),
    "wl.resubmissions": ("count", "lower", "wl",
                         "failed-operation share on every workload"),
    "spec.hit_rate": ("ratio", "higher", "spec",
                      "wl_steps_per_s on paper_wl"),
    "spec.self_ms_per_step": ("ms", "lower", "spec",
                              "wl_steps_per_s on paper_wl"),
    "spec.residual_rms_ry": ("Ry", "lower", "spec",
                             "fidelity guard, not speed (paper_wl)"),
    "lsms.exact_eval_ms": ("ms", "lower", "lsms",
                           "wl_steps_per_s on paper_wl"),
    "lsms.evals_per_s": ("1/s", "higher", "lsms",
                         "wl_steps_per_s on paper_wl and serve_mix"),
    "lsms.evals_per_core_s": ("1/s", "higher", "lsms",
                              "wl_steps_per_s on paper_wl and serve_mix"),
    "lsms.flops_per_eval": ("flop", "lower", "lsms",
                            "explains wl_steps_per_s moves from less work"),
    "lsms.sustained_gflops": ("GFlop/s", "higher", "lsms",
                              "wl_steps_per_s on paper_wl"),
    "lsms.frac_of_zgemm_peak": ("ratio", "higher", "lsms",
                                "wl_steps_per_s on paper_wl"),
    "lsms.gemm_frac": ("ratio", "higher", "lsms",
                       "wl_steps_per_s on paper_wl"),
    "lsms.shard_ms": ("ms", "lower", "lsms",
                      "latency_p50_ms on shard_fe16"),
    "linalg.zgemm_gflops_1t": ("GFlop/s", "higher", "linalg",
                               "wl_steps_per_s on paper_wl"),
    "linalg.zgemm_gflops_team": ("GFlop/s", "higher", "linalg",
                                 "wl_steps_per_s on paper_wl"),
    "serve.occupancy": ("ratio", "higher", "serve",
                        "wl_steps_per_s on serve_mix"),
    "serve.solve_ms_per_item": ("ms", "lower", "serve",
                                "wl_steps_per_s on serve_mix"),
    "serve.queue_ms_mean": ("ms", "lower", "serve",
                            "latency_p50_ms on serve_mix"),
    "serve.admit_ms_mean": ("ms", "lower", "serve",
                            "latency_p50_ms on serve_mix"),
    "serve.serialize_ms_mean": ("ms", "lower", "serve",
                                "latency_p50_ms on serve_mix"),
    "serve.client_wait_ms_mean": ("ms", "lower", "serve",
                                  "latency_p50_ms on serve_mix"),
    "serve.wire_ms_mean": ("ms", "lower", "serve",
                           "latency_p50_ms on serve_mix"),
    "serve.rejects": ("count", "lower", "serve",
                      "failed-operation share on serve_mix"),
    "comm.submit_ms_p50": ("ms", "lower", "comm",
                           "latency_p50_ms on shard_fe16"),
    "comm.retrieve_wait_ms_p50": ("ms", "lower", "comm",
                                  "latency_p50_ms on shard_fe16"),
    "comm.overhead_ms_per_eval": ("ms", "lower", "comm",
                                  "wl_steps_per_s on shard_fe16"),
    "comm.frames_per_eval": ("count", "lower", "comm",
                             "latency_p50_ms on shard_fe16"),
    "comm.bytes_per_eval": ("B", "lower", "comm",
                            "latency_p50_ms on shard_fe16"),
    "comm.delta_scatter_frac": ("ratio", "higher", "comm",
                                "latency_p50_ms on shard_fe16"),
    "comm.reroutes": ("count", "lower", "comm",
                      "failed-operation share on shard_fe16"),
    "comm.heartbeat_misses": ("count", "lower", "comm",
                              "failed-operation share on shard_fe16"),
    "obs.tracing_overhead_frac": ("ratio", "lower", "obs",
                                  "keeps the ledger honest (every workload)"),
    "obs.ledger_gap_frac": ("ratio", "lower", "obs",
                            "ledger closure: 1 - layer self times / wall"),
}


# ------------------------------------------------------------- arithmetic --

def ratio(numerator, base):
    """numerator / base, 0 when the base is empty."""
    return numerator / base if base else 0.0


def rank(n, p):
    """1-based nearest-rank position of percentile p among n samples:
    ceil(p / 100 * n), in exact integer arithmetic (p to 0.01)."""
    hundredths = round(p * 100)
    return max(1, -(-hundredths * n // 10000))


def nearest_rank(sorted_values, p):
    """The p-th percentile by nearest rank: the smallest sample with at
    least p% of the samples at or below it."""
    return sorted_values[rank(len(sorted_values), p) - 1]


def beyond(n, p):
    """Samples strictly after the nearest-rank position of percentile p."""
    return n - rank(n, p)


def tail_percentile(n, ladder=PERCENTILE_LADDER, min_beyond=TAIL_MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in ladder:
        if beyond(n, p) >= min_beyond:
            best = p
    return best


def latency_summary(values):
    """Median, tail (percentile rule above), and the tail's provenance."""
    s = sorted(values)
    p = tail_percentile(len(s))
    if p is None:
        raise ValueError("too few latency samples for a tail: %d" % len(s))
    return {
        "p50": p50(s),
        "tail": nearest_rank(s, p),
        "tail_percentile": p,
        "samples": len(s),
        "tail_samples_beyond": beyond(len(s), p),
    }


def covered(interval, children):
    """Length of the union of `children` intervals clipped to `interval`."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: self time} for spans given as (name, begin, end, id,
    parent, thread): duration minus the part of it its children cover."""
    children = {}
    for name, begin, end, sid, parent, thread in spans:
        children.setdefault(parent, []).append((begin, end))
    return {sid: (end - begin) - covered((begin, end), children.get(sid, []))
            for name, begin, end, sid, parent, thread in spans}


def layer_of(name):
    return name.split(".", 1)[0]


def ledger(spans, root="wl.run"):
    """Self time per layer [us] over the span trees rooted at `root`."""
    by_id = {s[3]: s for s in spans}

    def root_of(span):
        while span[4] in by_id:
            span = by_id[span[4]]
        return span

    own = self_times(spans)
    layers = {}
    for span in spans:
        if root_of(span)[0] != root:
            continue
        layer = "wl" if span[0] == root else layer_of(span[0])
        layers[layer] = layers.get(layer, 0.0) + own[span[3]]
    return layers


def p50(values):
    return nearest_rank(sorted(values), 50.0) if values else 0.0


def mean_of(histograms, name):
    h = histograms.get(name, {"sum": 0.0, "count": 0})
    return ratio(h["sum"], h["count"])


# ---------------------------------------------------------------- metrics --

def boundaries(record, layer):
    return [b for b in record["pass"]["boundaries"] if b["layer"] == layer]


def merged(logs, key):
    return [v for log in logs for v in log[key]]


def end_to_end(record):
    """The end-to-end metrics of an untraced record, plus provenance."""
    workload = record["workload"]
    run = record["pass"]
    if workload == "paper_wl":
        # Driver-boundary latency is bimodal here (speculated results return
        # at once, exact ones after a solve), so latency is taken per exact
        # evaluation: the duration of each retrieve at the lsms boundary.
        lat = latency_summary(merged(boundaries(record, "lsms"), "retrieve_ms"))
        lat["measured_at"] = "lsms boundary, per exact evaluation"
    else:
        lat = latency_summary(merged(boundaries(record, DRIVER_BOUNDARY[workload]),
                                     "latency_ms"))
        lat["measured_at"] = "driver boundary, submit to result"
    metrics = {
        "setup_s": statistics.median(record["setup_s"]),
        "wl_steps_per_s": ratio(run["steps"], run["wall_s"]),
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return metrics, lat


def per_layer(record):
    """Every per-layer metric of a traced record (0 where the workload does
    not reach the layer), plus the ledger."""
    workload = record["workload"]
    run = record["pass"]
    cal = record["calibration"]
    counters = run["counters"]
    hist = run["histograms"]
    steps = run["steps"]
    spans = record["spans"]
    layers = ledger(spans)
    wall_us = 1e6 * sum(run["thread_wall_s"])
    m = {name: 0.0 for name in PER_LAYER}

    m["wl.driver_self_ms_per_step"] = ratio(layers.get("wl", 0.0) / 1e3, steps)
    m["wl.resubmissions"] = run["resubmissions"]
    m["obs.tracing_overhead_frac"] = ratio(run["wall_s"],
                                           record["untraced_wall_s"]) - 1.0
    m["obs.ledger_gap_frac"] = 1.0 - ratio(sum(layers.values()), wall_us)

    # Exact evaluations: results the LSMS layer produced.
    if workload == "paper_wl":
        exact_logs = boundaries(record, "lsms")
    else:
        exact_logs = boundaries(record, DRIVER_BOUNDARY[workload])
    evals = sum(b["results"] for b in exact_logs)
    threads = run["lsms_threads"]
    m["lsms.evals_per_s"] = ratio(evals, run["wall_s"])
    m["lsms.evals_per_core_s"] = ratio(m["lsms.evals_per_s"], threads)
    m["lsms.flops_per_eval"] = run["flops_per_eval"]
    m["linalg.zgemm_gflops_1t"] = cal["zgemm_gflops_1t"]
    m["linalg.zgemm_gflops_team"] = cal["zgemm_gflops_team"]

    if workload == "shard_fe16":
        # Worker ranks are separate processes: their flops are counted
        # analytically (flops_per_energy x evaluations), their GEMM share
        # from the same-run shard calibration.
        flops = run["flops_per_eval"] * evals
        m["lsms.gemm_frac"] = cal["shard_gemm_frac"]
        peak = cal["zgemm_gflops_team"]
    else:
        flops = run["flops"]
        m["lsms.gemm_frac"] = ratio(run["gemm_flops"], run["flops"])
        # Base: ZGEMM at the thread count the layer computes with.
        peak = cal["zgemm_gflops_team"] if threads > 1 else cal["zgemm_gflops_1t"]
    m["lsms.sustained_gflops"] = ratio(flops / 1e9, run["wall_s"])
    m["lsms.frac_of_zgemm_peak"] = ratio(m["lsms.sustained_gflops"], peak)

    if workload == "paper_wl":
        spec = run["spec"]
        m["spec.hit_rate"] = ratio(spec["speculated"], spec["proposed"])
        m["spec.self_ms_per_step"] = ratio(layers.get("spec", 0.0) / 1e3, steps)
        m["spec.residual_rms_ry"] = spec["residual_rms_ry"]
        m["lsms.exact_eval_ms"] = ratio(sum(merged(exact_logs, "retrieve_ms")),
                                        evals)

    if workload == "serve_mix":
        logs = boundaries(record, "serve")
        occupancy = ratio(counters.get("serve.accepted", 0),
                          counters.get("serve.batches", 0))
        m["serve.occupancy"] = occupancy
        # serve.stage_ms.solve charges each request its whole batch's solve.
        m["serve.solve_ms_per_item"] = ratio(
            mean_of(hist, "serve.stage_ms.solve"), occupancy)
        m["serve.queue_ms_mean"] = mean_of(hist, "serve.stage_ms.queue_wait")
        # The daemon histograms no admission stage: admission is taken as
        # the client's submit call (request encode + write).
        m["serve.admit_ms_mean"] = statistics.fmean(merged(logs, "submit_ms"))
        # Result serialization is histogrammed as the deliver stage (the
        # encoded result frame's write).
        m["serve.serialize_ms_mean"] = mean_of(hist, "serve.stage_ms.deliver")
        # Mean, not median: with two walkers per connection every other
        # retrieve finds its result already delivered, so the median flips
        # between "no wait" and "a whole batch".
        m["serve.client_wait_ms_mean"] = statistics.fmean(merged(logs, "retrieve_ms"))
        m["serve.wire_ms_mean"] = mean_of(hist, "serve.client.wire_ms")
        m["serve.rejects"] = (counters.get("serve.rejects_queue_full", 0) +
                              counters.get("serve.rejects_quota", 0))

    if workload == "shard_fe16":
        logs = boundaries(record, "comm")
        m["lsms.shard_ms"] = cal["shard_ms"]
        m["comm.submit_ms_p50"] = p50(merged(logs, "submit_ms"))
        m["comm.retrieve_wait_ms_p50"] = p50(merged(logs, "retrieve_ms"))
        # Base: group busy time per evaluation (groups x wall / evals); the
        # request latency itself also holds the wait for a free group.
        group_ms = ratio(run["groups"] * run["wall_s"] * 1e3, evals)
        m["comm.overhead_ms_per_eval"] = group_ms - cal["shard_ms"]
        frames = (counters.get("comm.frames_sent", 0) +
                  counters.get("comm.frames_received", 0))
        sent = (counters.get("comm.bytes_sent", 0) +
                counters.get("comm.bytes_received", 0))
        m["comm.frames_per_eval"] = ratio(frames, evals)
        m["comm.bytes_per_eval"] = ratio(sent, evals)
        delta = counters.get("comm.delta_scatters", 0)
        m["comm.delta_scatter_frac"] = ratio(
            delta, delta + counters.get("comm.full_scatters", 0))
        m["comm.reroutes"] = counters.get("comm.reroutes", 0)
        m["comm.heartbeat_misses"] = counters.get("comm.heartbeat_misses", 0)

    return m, {k: v / 1e6 for k, v in layers.items()}


def accounting(record):
    """(attempted, failed, {failure kind: count}): every operation the
    drivers posted, and each kind of failure counted against them."""
    workload = record["workload"]
    run = record["pass"]
    counters = run["counters"]
    driver_logs = boundaries(record, DRIVER_BOUNDARY[workload])
    kinds = {
        "oracle_mismatches": record["oracle"]["mismatches"],
        "failed_results": sum(b["failed"] for b in driver_logs),
        "serve_refusals": (counters.get("serve.rejects_queue_full", 0) +
                           counters.get("serve.rejects_quota", 0)),
        "comm_errors": run["comm_errors"],
        "reroutes": counters.get("comm.reroutes", 0),
        "resubmissions": run["resubmissions"],
    }
    attempted = sum(b["submitted"] for b in driver_logs)
    return attempted, sum(kinds.values()), kinds


def checks(record, layers_s=None):
    """Names of the correctness checks the record fails (empty = correct)."""
    run = record["pass"]
    failed = []
    oracle = record["oracle"]
    if oracle["checked"] < 1 or oracle["mismatches"] != 0:
        failed.append("oracle: %d of %d sampled energies differ from the "
                      "serial solver" % (oracle["mismatches"], oracle["checked"]))
    if run["steps"] != record["steps_requested"]:
        failed.append("steps: %d completed, %d expected"
                      % (run["steps"], record["steps_requested"]))
    if record["workload"] == "paper_wl":
        spec = run["spec"]
        # Wiring guard: every trial move must have been screened. Behind an
        # unbound speculator every move is forwarded exactly instead.
        if spec["proposed"] < run["steps"]:
            failed.append("spec wiring: %d of %d moves screened"
                          % (spec["proposed"], run["steps"]))
        # The speculation gates hold while the speculator speculates; a
        # tripped speculator answers every move exactly, as its error budget
        # demands.
        if not spec["tripped"]:
            hit = ratio(spec["speculated"], spec["proposed"])
            if hit < HIT_RATE_FLOOR:
                failed.append("spec hit rate %.3f below %.2f"
                              % (hit, HIT_RATE_FLOOR))
            if spec["residual_rms_ry"] > spec["error_budget_ry"]:
                failed.append("spec residual rms %.3e over budget %.1e"
                              % (spec["residual_rms_ry"], spec["error_budget_ry"]))
    if layers_s is not None:
        wall = sum(run["thread_wall_s"])
        gap = 1.0 - ratio(sum(layers_s.values()), wall)
        if abs(gap) > LEDGER_TOLERANCE:
            failed.append("ledger: layer self times miss wall time by %.1f%%"
                          % (100 * gap))
    return failed
