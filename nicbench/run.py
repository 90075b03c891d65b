#!/usr/bin/env python3
"""Repository benchmark: builds nicbench, runs one workload, checks it.

    python3 nicbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 nicbench/run.py --workload all ...   # every workload in turn
    python3 nicbench/run.py --self-test          # short run of each workload

Run from the repository root.  The nicbench binary is built from source into
.bench_build/nicbench (CMake, the root project's own build flags).  The
report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end set, with --trace 1 the per-layer set.  The exit code is
nonzero when the build fails, the run fails, or any correctness check
fails.  README.md in this directory defines every metric and workload.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "nicbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "nicbench-traces")

WORKLOADS = ["paper_duplex", "imix_rmw", "tasklevel_duplex", "fleet_ring"]
# 104729 is the held-out seed for confirming a claim (README.md).
DEFAULT_SEED = 1

# Printed in the final line with --trace 0 (gated by BENCHMARK.json).
END_TO_END = {
    "sim_us_per_ref_s": "us/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_gbps": "Gb/s",
    "sim_ipc_per_core": "instr/cycle",
}
# End-to-end metrics that drift with the host's load (sim_us_per_s) or
# can be 0 or not applicable on some workload; reported, checked, never
# gated.
REPORT_ONLY = {
    "sim_us_per_s": "us/s",
    "sim_rx_drop_frac": "ratio",
    "sim_rx_lat_p50_us": "us",
    "sim_rx_lat_p99_us": "us",
    "failed_frac": "ratio",
}
# Printed in the final line with --trace 1.
PER_LAYER = {
    "nic.construct_s": "s",
    "sim.events_per_frame": "events/frame",
    "sim.events_per_spad_access": "events/access",
    "sim.host_ns_per_event": "ns/event",
    "spad.accesses_per_frame": "accesses/frame",
    "spad.conflict_cycles_per_access": "cycles/access",
    "spad.rmws_per_frame": "rmws/frame",
    "sdram.bytes_per_frame": "B/frame",
    "sdram.useful_frac": "ratio",
    "sdram.busy_frac": "ratio",
    "hostmem.materializations": "count",
    "icache.miss_ratio": "ratio",
    "core.instructions_per_frame": "instr/frame",
    "core.invocations_per_frame": "calls/frame",
    "core.idle_frac": "ratio",
    "core.load_stall_cycles_per_frame": "cycles/frame",
    "core.conflict_cycles_per_frame": "cycles/frame",
    "opcache.hit_rate": "ratio",
    "opcache.lookups_per_frame": "lookups/frame",
    "fw.lock_spins_per_frame": "spins/frame",
    "dma.commands_per_frame": "commands/frame",
    "dma.fifo_full_rejects": "count",
    "mac.rx_drops": "count",
    "traffic.rx_offered": "count",
    "traffic.flows_seen": "count",
    "fleet.windows": "count",
    "fleet.frames_forwarded": "count",
    "fleet.switch_drops": "count",
    "fleet.inject_rejected": "count",
    "fleet.max_concurrent_workers": "count",
    "fleet.parallel_eff": "ratio",
}
# Per-layer metrics that exist only on some workloads; reported only.
PER_LAYER_REPORT_ONLY = {
    "nic.start_s": "s",
    "nic.warmup_s": "s",
    "fleet.construct_s": "s",
    "fleet.switch_lat_p99_us": "us",
}

# Workloads whose rx latency histogram must not overflow.
LATENCY_VALID = {"paper_duplex", "fleet_ring"}
# The p99 needs at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
# tests/test_nic_integration.cc pins the paper's 19.14 Gb/s duplex here.
PAPER_GBPS_WINDOW = (18.0, 19.2)


def fail(msg):
    print("nicbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the nicbench binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "nicbench",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "nicbench")


def run_nicbench(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=seconds * 2 + 90)
    except subprocess.TimeoutExpired:
        fail("nicbench timed out: " + " ".join(cmd))
    if p.returncode != 0:
        fail("nicbench failed (exit %d): %s" % (p.returncode, " ".join(cmd)))
    return json.loads(p.stdout)


def ratio(num, den):
    return num / den if den else 0.0


def host_speed(doc, rep):
    """Reference seconds per host second around one repeat: the
    reference kernel's measured rate over its nominal rate."""
    return (doc["ref_ops_per_burst"] / rep["ref_burst_s"] /
            doc["ref_ops_per_ref_s"])


def layer_metrics(o, nodes):
    """Per-layer work counts over the counter span, per frame."""
    c = o["counts"]
    frames = c["link.txFrames"] + c["link.rxFramesDelivered"]
    window_frames = o["window_frames"]
    cycles = sum(c["core." + k] for k in (
        "executeCycles", "imissCycles", "loadStallCycles",
        "conflictCycles", "pipelineCycles", "idleCycles"))
    lookups = c["opcache.hits"] + c["opcache.misses"]
    fleet = o.get("fleet", {})
    return {
        "sim.events_per_frame": ratio(c["sim.events"], frames),
        "sim.events_per_spad_access": ratio(c["sim.events"],
                                            c["spad.accesses"]),
        "spad.accesses_per_frame": ratio(c["spad.accesses"], frames),
        "spad.conflict_cycles_per_access": ratio(c["spad.conflictCycles"],
                                                 c["spad.accesses"]),
        "spad.rmws_per_frame": ratio(c["spad.rmws"], frames),
        "sdram.bytes_per_frame": ratio(c["sdram.transferredBytes"], frames),
        "sdram.useful_frac": ratio(c["sdram.usefulBytes"],
                                   c["sdram.transferredBytes"]),
        "sdram.busy_frac": ratio(c["sdram.busyTicks"],
                                 o["span_ticks"] * nodes),
        "hostmem.materializations": o["hostmem_materializations"],
        "icache.miss_ratio": o["icache_miss_ratio"],
        "core.instructions_per_frame": ratio(c["core.instructions"],
                                             window_frames),
        "core.invocations_per_frame": ratio(c["core.invocations"],
                                            window_frames),
        "core.idle_frac": ratio(c["core.idleCycles"], cycles),
        "core.load_stall_cycles_per_frame": ratio(c["core.loadStallCycles"],
                                                  window_frames),
        "core.conflict_cycles_per_frame": ratio(c["core.conflictCycles"],
                                                window_frames),
        "opcache.hit_rate": ratio(c["opcache.hits"], lookups),
        "opcache.lookups_per_frame": ratio(lookups, frames),
        "fw.lock_spins_per_frame": ratio(c["fw.lockSpins"], frames),
        "dma.commands_per_frame": ratio(c["dmaRead.commands"] +
                                        c["dmaWrite.commands"], frames),
        "dma.fifo_full_rejects": c["dmaRead.fifo_full_rejects"] +
                                 c["dmaWrite.fifo_full_rejects"],
        "mac.rx_drops": c["macRx.drops"],
        "traffic.rx_offered": c["gen.offered"],
        "traffic.flows_seen": o["flows_seen"],
        "fleet.windows": fleet.get("windows", 0),
        "fleet.frames_forwarded": fleet.get("frames_forwarded", 0),
        "fleet.switch_drops": fleet.get("switch_drops", 0),
        "fleet.inject_rejected": fleet.get("inject_rejected", 0),
    }


def outcome_e2e(o):
    """Simulated end-to-end metrics; None where not applicable."""
    c = o["counts"]
    fleet = o.get("fleet", {})
    # Window deltas of the generator's own counts; MacRx drops are not
    # added again (NicResults::rxDropped counts each of them twice).
    refused = c["gen.dropped"] + fleet.get("inject_rejected", 0)
    offered = (c["gen.offered"] + fleet.get("cross_delivered", 0) +
               fleet.get("inject_rejected", 0))
    valid = (o["lat_overflow"] == 0 and
             o["lat_min_count"] >= MIN_LATENCY_SAMPLES)
    return {
        "sim_gbps": o["sim_gbps"],
        "sim_ipc_per_core": o["ipc_per_core"],
        "sim_rx_drop_frac": ratio(refused, offered),
        "sim_rx_lat_p50_us": o["lat_p50_us"] if valid else None,
        "sim_rx_lat_p99_us": o["lat_p99_us"] if valid else None,
    }


def failures_of(o):
    """Validation failures: integrity, duplicates, lossless-tx gaps and,
    on the fleet, frames the fabric ledger cannot account for."""
    fleet = o.get("fleet", {})
    return int(o["errors"] + fleet.get("unaccounted_loss", 0))


def span_summary(spans):
    """Total and self host time per span name (self = minus children)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_s"] - s["start_s"]
    out = {}
    for i, s in enumerate(spans):
        d = s["end_s"] - s["start_s"]
        tot, self_t, n = out.get(s["name"], (0.0, 0.0, 0))
        out[s["name"]] = (tot + d, self_t + d - child[i], n + 1)
    return out


def write_trace(workload, seed, spans):
    """Chrome trace-event file of the traced repeat's spans."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "%s-seed%d.json" % (workload, seed))
    events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
               "ts": s["start_s"] * 1e6,
               "dur": (s["end_s"] - s["start_s"]) * 1e6,
               "args": {"id": i, "parent": s["parent"]}}
              for i, s in enumerate(spans)]
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    return path


def check_units(metrics, table):
    """Every named metric is present, finite and carries its unit."""
    bad = []
    for name, unit in table.items():
        m = metrics.get(name)
        if (m is None or m.get("unit") != unit or
                not isinstance(m.get("value"), (int, float)) or
                not math.isfinite(m["value"])):
            bad.append(name)
    return bad


def evaluate(doc, trace):
    """Metrics, checks and report lines for one nicbench document."""
    w = doc["workload"]
    nodes = doc["nodes"]
    reps = doc["repeats"]
    first = reps[0]["outcome"]
    checks = []

    def check(ok, what):
        checks.append((bool(ok), what))

    check(all(r["outcome"] == first for r in reps),
          "sim_* metrics and per-layer counts identical across %d repeats"
          % len(reps))
    traced = doc.get("traced")
    if traced:
        check(traced["outcome"] == first,
              "traced repeat identical to the untraced repeats")
        if "one_thread_outcome" in traced:
            check(traced["one_thread_outcome"] == first,
                  "1-thread rerun identical to the %d-thread run"
                  % doc["threads"])

    attempted = int(sum(r["delivered"] for r in reps))
    failed = sum(failures_of(r["outcome"]) for r in reps)
    check(failed == 0, "failed_frac == 0 (%d failures in %d frames)"
          % (failed, attempted))

    sim = outcome_e2e(first)
    # On a shared host the simulator's speed drifts by +-25% for minutes
    # with other tenants' load.  Timing the window on the reference
    # clock (refclock.hh), which slows down with it, removes most of
    # that drift; the median over repeats damps what is left.
    speeds = [r["sim_us"] / r["timed_s"] for r in reps]
    host_speeds = [host_speed(doc, r) for r in reps]
    host = {
        "sim_us_per_ref_s": statistics.median(
            v / f for v, f in zip(speeds, host_speeds)),
        "sim_us_per_s": statistics.median(speeds),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": doc["peak_rss_kib"] / 1024.0,
    }
    e2e = dict(host)
    e2e.update(sim)
    e2e["failed_frac"] = ratio(failed, attempted)

    if w == "paper_duplex":
        lo, hi = PAPER_GBPS_WINDOW
        check(lo < sim["sim_gbps"] <= hi,
              "paper_duplex sim_gbps %.4f in (%g, %g]"
              % (sim["sim_gbps"], lo, hi))
        check(first["hostmem_materializations"] == 0 and
              first["sdram_materializations"] == 0,
              "host memory and SDRAM never materialized")
    if w == "fleet_ring":
        check(first["fleet"]["unaccounted_loss"] == 0,
              "fleet unaccountedLoss == 0")
    if w in LATENCY_VALID:
        check(sim["sim_rx_lat_p99_us"] is not None,
              "rx latency valid: no histogram overflow, >= %d samples "
              "per node (overflow %d, min samples %d)"
              % (MIN_LATENCY_SAMPLES, first["lat_overflow"],
                 first["lat_min_count"]))

    layer = layer_metrics(first, nodes)
    layer["nic.construct_s"] = statistics.median(
        r["construct_s"] for r in reps)
    layer["sim.host_ns_per_event"] = statistics.median(
        r["timed_s"] * 1e9 / r["outcome"]["counts"]["sim.events"]
        for r in reps)
    extra = {}
    if doc["threads"] > 1:
        extra["fleet.construct_s"] = layer["nic.construct_s"]
        extra["fleet.switch_lat_p99_us"] = first["fleet"]["switch_lat_p99_us"]
    else:
        extra["nic.start_s"] = statistics.median(r["start_s"] for r in reps)
        extra["nic.warmup_s"] = statistics.median(r["warmup_s"] for r in reps)
    if traced and "one_thread_run_s" in traced:
        layer["fleet.max_concurrent_workers"] = traced[
            "max_concurrent_workers"]
        layer["fleet.parallel_eff"] = traced["one_thread_run_s"] / (
            doc["threads"] * traced["timed_s"])
    elif doc["threads"] > 1:
        layer["fleet.max_concurrent_workers"] = max(
            r["max_concurrent_workers"] for r in reps)
        layer["fleet.parallel_eff"] = None
    else:
        # One thread runs the event loop: efficiency is 1 by definition.
        layer["fleet.max_concurrent_workers"] = 1
        layer["fleet.parallel_eff"] = 1.0

    # Every metric the report names: (value, unit); None = not applicable.
    named = {k: (e2e[k], u) for k, u in END_TO_END.items()}
    named.update((k, (e2e[k], u)) for k, u in REPORT_ONLY.items())
    named.update((k, (layer[k], u)) for k, u in PER_LAYER.items())
    named.update((k, (extra[k], u))
                 for k, u in PER_LAYER_REPORT_ONLY.items() if k in extra)

    lines = ["workload %s  seed %d  repeats %d  nodes %d  threads %d"
             % (w, doc["seed"], len(reps), nodes, doc["threads"]),
             "host speed %.4g ref s per host s (median of repeats)"
             % statistics.median(host_speeds),
             "end-to-end (host times median of repeats; sim_* exact), "
             "then per-layer:"]
    for name, (v, unit) in named.items():
        lines.append("  %-34s %s" % (name, "n/a" if v is None
                                     else "%.6g %s" % (v, unit)))

    if traced:
        t_speed = (traced["sim_us"] / traced["timed_s"] /
                   host_speed(doc, traced))
        untraced = host["sim_us_per_ref_s"]
        overhead = (untraced - t_speed) / untraced
        path = write_trace(w, doc["seed"], traced["spans"])
        lines.append("traced repeat: sim_us_per_ref_s %.6g vs untraced "
                     "median %.6g: tracing overhead %+.2f%%; %d spans -> %s"
                     % (t_speed, untraced, 100 * overhead,
                        len(traced["spans"]), os.path.relpath(path, ROOT)))
        for name, (tot, self_t, n) in span_summary(traced["spans"]).items():
            lines.append("  span %-26s x%-4d total %.4f s  self %.4f s"
                         % (name, n, tot, self_t))

    if trace:
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
        table = PER_LAYER
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
        table = END_TO_END
    missing = check_units(metrics, table)
    check(not missing, "every metric present, finite, with its unit%s"
          % (" (bad: %s)" % ", ".join(missing) if missing else ""))

    lines.append("checks:")
    for ok, what in checks:
        lines.append("  %s %s" % ("PASS" if ok else "FAIL", what))
    correct = all(ok for ok, _ in checks)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines, named


def run_workload(exe, workload, seed, seconds, trace):
    doc = run_nicbench(exe, workload, seed, seconds, trace)
    result, lines, _ = evaluate(doc, trace)
    print("\n".join(lines))
    return result


def self_test(exe):
    """Each workload briefly, traced: every named metric present, finite
    and with its unit, and BENCHMARK.json agreeing with the tables
    above."""
    ok = True
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        for key, table in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != table:
                print("FAIL BENCHMARK.json %s differs from run.py" % key)
                ok = False
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            print("FAIL BENCHMARK.json workloads differ from run.py")
            ok = False
    tables = {}
    for t in (END_TO_END, REPORT_ONLY, PER_LAYER, PER_LAYER_REPORT_ONLY):
        tables.update(t)
    for w in WORKLOADS:
        doc = run_nicbench(exe, w, DEFAULT_SEED, 0, 1)
        for trace in (0, 1):
            result, _, named = evaluate(doc, trace)
            required = (list(END_TO_END) + list(REPORT_ONLY) +
                        list(PER_LAYER))
            bad = [k for k in required if k not in named]
            for k, (v, unit) in named.items():
                latency_na = (k.startswith("sim_rx_lat_") and
                              w not in LATENCY_VALID)
                if unit != tables[k] or not (
                        (v is None and latency_na) or
                        (isinstance(v, (int, float)) and math.isfinite(v))):
                    bad.append(k)
            good = result["correct"] and not bad
            ok = ok and good
            print("%s %s trace=%d%s" % ("PASS" if good else "FAIL", w,
                                        trace, " bad: " + ", ".join(bad)
                                        if bad else ""))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    exe = build()
    if args.self_test:
        sys.exit(0 if self_test(exe) else 1)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(exe, w, args.seed, args.seconds, args.trace)
               for w in names]
    for r in results:
        print(json.dumps(r))
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
