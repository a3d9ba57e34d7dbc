#!/usr/bin/env python3
"""Open-loop deadline benchmark for the live air server.

    python3 perfbench/run.py --workload push-ladder --seed 1 --seconds 10 --trace 0

Builds tcsactl and the benchmark's load generator from the checkout (into
.bench_build/), runs one workload, checks the wire, and prints every metric
by name and unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 the run is made
twice (untraced, then traced) and the metrics are the per-layer ones,
including the tracing overhead per end-to-end metric. Exit status is nonzero,
with no result line, on any wire-correctness violation or error.

The C++ client (perfbench_client) measures; this script reduces. Every
percentile and median below comes from percentile().
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
CLIENT_TIMEOUT_S = 170

# End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "access_delay_p50_ms": "ms",
    "access_delay_p99_ms": "ms",
    "server_rss_mb": "MB",
}

# Per-layer metrics of the traced run: name -> unit. The e2e.* entries are
# end-to-end metrics that carry no bound: zero or undefined on some
# workloads, or too noisy on a shared host to gate; see README.md.
PER_LAYER = {
    "core.schedule_ms": "ms",
    "core.schedule_pages_per_s": "1/s",
    "server.seam_plan_ms": "ms",
    "server.swaps": "count",
    "server.swap_rejected": "count",
    "model.validate_ms": "ms",
    "model.workload_codec_us": "us",
    "sim.predicted_overdue_slots": "slots",
    "server.slot_lag_mean_us": "us",
    "server.slot_lag_p99_us": "us",
    "server.slots_late_over_1slot": "count",
    "server.frame_cache_hit_ratio": "ratio",
    "server.frames_encoded_per_slot": "count",
    "server.pull_airings_per_slot": "count",
    "server.pull_coalescing": "ratio",
    "server.pull_pending_waiters_peak": "count",
    "server.pull_oldest_wait_slots_peak": "slots",
    "server.pull_pick_us": "us",
    "server.reqs_dropped": "count",
    "server.cpu_user_s": "s",
    "server.cpu_sys_s": "s",
    "net.flush_calls_per_slot": "count",
    "net.uring_sqes_per_enter": "ratio",
    "net.flush_eagain_ratio": "ratio",
    "net.queue_depth_bytes_peak": "bytes",
    "net.bytes_sent_per_slot": "bytes",
    "net.client_decode_ns_per_frame": "ns",
    "loadgen.send_lateness_p99_us": "us",
    "loadgen.client_busy_ratio": "ratio",
    "e2e.server_cpu_us_per_slot": "us",
    "e2e.airing_lateness_p99_us": "us",
    "e2e.deadline_miss_rate": "ratio",
    "e2e.overdue_mean_slots": "slots",
    "e2e.max_slot_rate": "1/s",
    "e2e.swap_reply_ms_p50": "ms",
    "e2e.pull_delay_p50_ms": "ms",
    "e2e.pull_delay_p99_ms": "ms",
    "e2e.error_rate": "ratio",
    "e2e.completions": "count",
}
for _name in END_TO_END:
    PER_LAYER["obs.trace_overhead_pct." + _name] = "%"

WORKLOADS = ("push-ladder", "catalog-swap", "hybrid-pull")


class BenchError(Exception):
    """A failed build or run: no result is printed."""


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    sample at or below it. percentile(v, 50) is the (lower) median."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def build():
    """Configures and builds tcsactl and the load generator; returns the
    paths of the two binaries."""
    os.makedirs(BUILD, exist_ok=True)
    tcsa = os.path.join(BUILD, "tcsa")
    bench = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(tcsa, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", tcsa,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DTCSA_BUILD_TESTS=OFF", "-DTCSA_BUILD_BENCH=OFF"])
    steps.append(["cmake", "--build", tcsa, "--target", "tcsactl", "-j", jobs])
    if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bench,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DTCSA_SOURCE_DIR=" + ROOT, "-DTCSA_BUILD_DIR=" + tcsa])
    steps.append(["cmake", "--build", bench, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                raise BenchError("build step failed: %s (see %s)" %
                                 (" ".join(step), log.name))
    return (os.path.join(tcsa, "examples", "tcsactl"),
            os.path.join(bench, "perfbench_client"))


def run_client(client, tcsactl, workload, seed, seconds, trace):
    """Runs one measured pass; returns its record."""
    run_dir = os.path.join(BUILD, "runs", "%s-s%d-t%d" % (workload, seed, trace))
    os.makedirs(run_dir, exist_ok=True)
    record_path = os.path.join(run_dir, "record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [client, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--tcsactl", tcsactl, "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("the load generator timed out")
    if proc.returncode not in (0, 3):
        raise BenchError("the load generator failed: " + proc.stderr.strip())
    with open(record_path) as f:
        record = json.load(f)
    record["run_dir"] = run_dir
    if record["violations"]:
        raise BenchError("wire-correctness violation:\n  " +
                         "\n  ".join(record["violations"][:20]))
    return record


# --- reductions -------------------------------------------------------------

def counters(scrape):
    return scrape["metrics"]["counters"]


def delta(record, name):
    return counters(record["after"]).get(name, 0) - \
        counters(record["before"]).get(name, 0)


def window_slots(record):
    slots = delta(record, "tcsa_server_slots_aired_total")
    if slots <= 0:
        raise BenchError("the server aired no slots in the window")
    return slots


def cpu_seconds(record, field):
    ticks = record["after"][field] - record["before"][field]
    return ticks / float(record["clk_tck"])


def end_to_end(record):
    req = record["requests"]
    if not req["delay_ms"]:
        raise BenchError("no request completed")
    return {
        "setup_s": percentile(record["setup_s"], 50),
        "access_delay_p50_ms": percentile(req["delay_ms"], 50),
        "access_delay_p99_ms": percentile(req["delay_ms"], 99),
        "server_rss_mb": record["server_vm_hwm_kb"] / 1024.0,
    }


def max_slot_rate(record):
    """Highest ladder rung meeting all three limits: lateness p99 within one
    slot, no evictions, and slots aired >= 99% of slots due."""
    best = 0.0
    for rung in record["ladder"]:
        us = rung["slot_us"]
        aired = delta(rung, "tcsa_server_slots_aired_total")
        due = (rung["after"]["t_s"] - rung["before"]["t_s"]) * 1e6 / us
        ok = (rung["lateness_us"] and
              percentile(rung["lateness_us"], 99) <= us and
              delta(rung, "tcsa_server_evictions_total") == 0 and
              rung["early_closes"] == 0 and aired >= 0.99 * due)
        if ok:
            best = max(best, 1e6 / us)
    return best


def outcome(record):
    """(attempted, failed) operations of the measured window."""
    req = record["requests"]
    swaps = len(record["swaps"]["reply_ms"])
    attempted = req["attempted"] + swaps
    failed = req["failed"] + record["early_closes"]
    return attempted, failed


def workload_specific(record):
    req = record["requests"]
    attempted, failed = outcome(record)
    evictions = delta(record, "tcsa_server_evictions_total")
    reply = record["swaps"]["reply_ms"]
    pulls = req["pull_delay_ms"]
    cpu = cpu_seconds(record, "utime_ticks") + cpu_seconds(record, "stime_ticks")
    return {
        "e2e.server_cpu_us_per_slot": cpu * 1e6 / window_slots(record),
        "e2e.airing_lateness_p99_us": percentile(record["lateness_us"], 99),
        "e2e.deadline_miss_rate":
            (req["late"] + req["failed"]) / float(max(1, req["attempted"])),
        "e2e.overdue_mean_slots": req["overdue_mean_slots"],
        "e2e.max_slot_rate": max_slot_rate(record),
        "e2e.swap_reply_ms_p50": percentile(reply, 50) if reply else 0.0,
        "e2e.pull_delay_p50_ms": percentile(pulls, 50) if pulls else 0.0,
        "e2e.pull_delay_p99_ms": percentile(pulls, 99) if pulls else 0.0,
        "e2e.error_rate":
            (failed + evictions) / float(attempted + record["sessions"]),
        "e2e.completions": req["completed"],
        "loadgen.send_lateness_p99_us":
            percentile(record["client"]["send_lateness_us"], 99),
    }


def gauge_peak(record, name):
    peak = 0.0
    for sample in record["gauge_samples"] + [record["after"]["metrics"]]:
        peak = max(peak, sample["gauges"].get(name, 0.0))
    return peak


def slot_lags(record):
    """Airing lag of the window's slots still held in the server's /slots
    timeline (its newest few thousand)."""
    first = counters(record["before"]).get("tcsa_server_slots_aired_total", 0)
    last = counters(record["after"]).get("tcsa_server_slots_aired_total", 0)
    lags = [s["lag_us"] for s in record["slots"]["slots"]
            if first <= s["slot"] < last]
    if not lags:
        raise BenchError("no /slots record falls in the window")
    return lags


def per_layer(traced, untraced):
    slots = window_slots(traced)
    probes = traced["probes"]
    pages = traced["pages"]
    airings = delta(traced, "tcsa_server_pull_airings_total")
    encoded = delta(traced, "tcsa_server_frames_encoded_total")
    hits = delta(traced, "tcsa_server_frame_cache_hits_total")
    page_encodes = max(0, encoded - airings)
    writev = delta(traced, "tcsa_server_writev_calls_total")
    enters = delta(traced, "tcsa_server_uring_enter_total")
    sqes = delta(traced, "tcsa_server_uring_sqe_batched_total")
    eagain = delta(traced, "tcsa_server_flush_eagain_total")
    lags = slot_lags(traced)
    client = traced["client"]
    seam = traced["swaps"]["seam_plan_ms"]
    m = {
        "core.schedule_ms": probes["schedule_ms"],
        "core.schedule_pages_per_s": pages / (probes["schedule_ms"] / 1e3),
        "server.seam_plan_ms":
            percentile(seam, 50) if seam else probes["seam_plan_ms"],
        "server.swaps": delta(traced, "tcsa_server_swaps_total"),
        "server.swap_rejected": delta(traced, "tcsa_server_swap_rejected_total"),
        "model.validate_ms": probes["validate_ms"],
        "model.workload_codec_us": probes["workload_codec_us"],
        "sim.predicted_overdue_slots": probes["predicted_overdue_slots"],
        "server.slot_lag_mean_us": sum(lags) / float(len(lags)),
        "server.slot_lag_p99_us": percentile(lags, 99),
        "server.slots_late_over_1slot":
            sum(1 for lag in lags if lag > traced["slot_us"]),
        "server.frame_cache_hit_ratio":
            hits / float(hits + page_encodes) if hits + page_encodes else 0.0,
        "server.frames_encoded_per_slot": encoded / float(slots),
        "server.pull_airings_per_slot": airings / float(slots),
        "server.pull_coalescing":
            delta(traced, "tcsa_server_pull_waiters_served_total") /
            float(airings) if airings else 0.0,
        "server.pull_pending_waiters_peak":
            gauge_peak(traced, "tcsa_server_pull_pending_waiters"),
        "server.pull_oldest_wait_slots_peak":
            gauge_peak(traced, "tcsa_server_pull_oldest_wait_slots"),
        "server.pull_pick_us": probes["pull_pick_us"],
        "server.reqs_dropped": delta(traced, "tcsa_server_reqs_dropped_total"),
        "server.cpu_user_s": cpu_seconds(traced, "utime_ticks"),
        "server.cpu_sys_s": cpu_seconds(traced, "stime_ticks"),
        "net.flush_calls_per_slot": (writev + enters) / float(slots),
        "net.uring_sqes_per_enter": sqes / float(enters) if enters else 0.0,
        "net.flush_eagain_ratio":
            eagain / float(writev + sqes + eagain) if writev + sqes + eagain
            else 0.0,
        "net.queue_depth_bytes_peak":
            gauge_peak(traced, "tcsa_server_queue_depth_bytes"),
        "net.bytes_sent_per_slot":
            delta(traced, "tcsa_server_bytes_sent_total") / float(slots),
        "net.client_decode_ns_per_frame":
            client["decode_ns"] / float(client["decoded"])
            if client["decoded"] else 0.0,
        "loadgen.client_busy_ratio": client["busy_ratio_max"],
    }
    specific = workload_specific(untraced)
    m.update(specific)
    m["loadgen.send_lateness_p99_us"] = workload_specific(traced)[
        "loadgen.send_lateness_p99_us"]
    plain, with_trace = end_to_end(untraced), end_to_end(traced)
    for name in END_TO_END:
        m["obs.trace_overhead_pct." + name] = \
            (with_trace[name] - plain[name]) / plain[name] * 100.0
    return m


def self_time_table(record):
    rows = sorted(record["spans"].items(), key=lambda kv: -kv[1]["self_ms"])
    total = sum(v["self_ms"] for _, v in rows) or 1.0
    lines = ["%-26s %9s %12s %12s %7s" %
             ("span (layer.call)", "count", "total_ms", "self_ms", "self%")]
    for name, v in rows:
        lines.append("%-26s %9d %12.3f %12.3f %6.2f%%" %
                     (name, v["count"], v["total_ms"], v["self_ms"],
                      100.0 * v["self_ms"] / total))
    return "\n".join(lines)


def emit(metrics, units, attempted, failed):
    for name in units:
        print("%-42s %16.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        tcsactl, client = build()
        untraced = run_client(client, tcsactl, args.workload, args.seed,
                              args.seconds, False)
        attempted, failed = outcome(untraced)
        if untraced["requests"]["completed"] < 1000:
            print("warning: only %d completions; p99 rests on fewer than 10 "
                  "samples" % untraced["requests"]["completed"],
                  file=sys.stderr)
        if not args.trace:
            for name, value in sorted(workload_specific(untraced).items()):
                print("%-42s %16.6g %s" % (name, value, PER_LAYER[name]))
            emit(end_to_end(untraced), END_TO_END, attempted, failed)
            return 0
        traced = run_client(client, tcsactl, args.workload, args.seed,
                            args.seconds, True)
        table = self_time_table(traced)
        with open(os.path.join(traced["run_dir"], "selftime.txt"), "w") as f:
            f.write(table + "\n")
        print(table)
        print("chrome trace: " + os.path.join(traced["run_dir"], "trace.json"))
        emit(per_layer(traced, untraced), PER_LAYER, attempted, failed)
        return 0
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
