#!/usr/bin/env python3
"""Speed gate: compares alternating pairs of repository-benchmark runs.

    python3 tools/bench_gate.py --head H1 .. Hn --tree T1 .. Tn
    python3 tools/bench_gate.py --self-test

Each file holds the stdout of one `python3 nicbench/run.py --workload all`.
H<i> and T<i> are pair i: the committed tree (git HEAD) and the working
tree, run back to back on the same machine.  For every workload and every
end-to-end metric that BENCHMARK.json declares, the gate prints both
medians with their quartiles, the ratio of the medians and the pairs the
working tree won.  It exits 1 when

  - a run reports a failed correctness check ("correct": false);
  - a workload's median sim_us_per_ref_s is below SPEED_FLOOR x HEAD's;
  - any other end-to-end metric's median is worse than HEAD's by more
    than the metric's "bound" in BENCHMARK.json.

--self-test feeds synthetic runs through the same decision, with the
bounds read from BENCHMARK.json, and exits 1 if any case decides wrong.
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEED = "sim_us_per_ref_s"
SPEED_FLOOR = 0.90


def load_metrics():
    """The end-to-end metrics BENCHMARK.json declares, with their bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def parse_run(text):
    """{workload: result line} from one `run.py --workload all` report.
    run.py prints one "workload NAME ..." header per report and, at the
    end, one JSON result line per workload in the same order."""
    names = re.findall(r"^workload (\S+) ", text, re.M)
    results = [json.loads(line) for line in text.splitlines()
               if line.startswith("{")]
    if not names or len(names) != len(results):
        raise ValueError("%d workload reports but %d result lines"
                         % (len(names), len(results)))
    return dict(zip(names, results))


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def better(metric, a, b):
    """True when a is strictly better than b."""
    return a > b if metric["better"] == "higher" else a < b


def decide(metric, ratio):
    """The limit a tree/HEAD ratio of medians breaks, or None."""
    if metric["name"] == SPEED:
        return "floor %.2fx" % SPEED_FLOOR if ratio < SPEED_FLOOR else None
    bound = metric["bound"]
    if metric["better"] == "higher" and ratio < 1 - bound:
        return "bound -%g%%" % (100 * bound)
    if metric["better"] == "lower" and ratio > 1 + bound:
        return "bound +%g%%" % (100 * bound)
    return None


def gate(head_texts, tree_texts, metrics):
    """Report lines and failure lines for the pairs (head[i], tree[i])."""
    failures = []
    runs = {}
    for side, texts in (("HEAD", head_texts), ("tree", tree_texts)):
        runs[side] = [parse_run(t) for t in texts]
        for i, run in enumerate(runs[side], 1):
            for w, r in run.items():
                if not r["correct"]:
                    failures.append("%s run %d: %s failed a correctness "
                                    "check" % (side, i, w))
    workloads = list(runs["HEAD"][0])
    for side, side_runs in runs.items():
        for i, run in enumerate(side_runs, 1):
            if list(run) != workloads:
                failures.append("%s run %d: workloads %s, HEAD run 1 has %s"
                                % (side, i, list(run), workloads))
    if failures:
        return [], failures

    pairs = len(head_texts)
    lines = ["%-17s %-17s %-36s %-36s %7s %5s" % (
        "workload", "metric", "HEAD median (q1-q3)", "tree median (q1-q3)",
        "ratio", "won")]
    for w in workloads:
        for m in metrics:
            head = [run[w]["metrics"][m["name"]]["value"]
                    for run in runs["HEAD"]]
            tree = [run[w]["metrics"][m["name"]]["value"]
                    for run in runs["tree"]]
            hs, ts = spread(head), spread(tree)
            ratio = (ts[0] / hs[0] if hs[0] else
                     1.0 if ts[0] == hs[0] else float("inf"))
            won = sum(better(m, t, h) for h, t in zip(head, tree))
            broken = decide(m, ratio)
            lines.append("%-17s %-17s %-36s %-36s %6.3fx %2d/%-2d%s" % (
                w, m["name"], "%.6g (%.6g-%.6g)" % hs,
                "%.6g (%.6g-%.6g)" % ts, ratio, won, pairs,
                "  FAIL " + broken if broken else ""))
            if broken:
                failures.append("%s %s: median %.6g is %.3fx HEAD's %.6g "
                                "(%s)" % (w, m["name"], ts[0], ratio, hs[0],
                                          broken))
    return lines, failures


SYNTHETIC_WORKLOADS = ("paper_duplex", "imix_rmw", "tasklevel_duplex",
                       "fleet_ring")


def synthetic_run(metrics, scale, index, incorrect=()):
    """One run.py --workload all report with plausible values: each
    workload's base value times a per-run jitter times scale[(w, m)]."""
    base = {SPEED: 13000.0, "setup_s": 0.03, "peak_rss_mb": 15.8,
            "sim_gbps": 19.14, "sim_ipc_per_core": 0.70}
    jitter = (1.00, 0.97, 1.02, 0.99, 1.03)[index % 5]
    heads, results = [], []
    for n, w in enumerate(SYNTHETIC_WORKLOADS):
        values = {}
        for m in metrics:
            v = base[m["name"]] * (1 + 0.1 * n)
            if m["name"] in (SPEED, "setup_s"):
                v *= jitter
            values[m["name"]] = {"value": v * scale.get((w, m["name"]), 1),
                                 "unit": m["unit"]}
        heads.append("workload %s  seed 1  repeats 3  nodes 1  threads 1\n"
                     "checks:\n  PASS failed_frac == 0" % w)
        results.append(json.dumps({"correct": w not in incorrect,
                                   "attempted": 1000, "failed": 0,
                                   "metrics": values}))
    return "\n".join(heads + results) + "\n"


def self_test():
    metrics = load_metrics()
    cases = [
        # (case, tree scale, incorrect workloads in tree run 3,
        #  passes, words every failure line must name)
        ("identical sides", {}, (), True, ()),
        ("fleet_ring 15% slower", {("fleet_ring", SPEED): 0.85}, (),
         False, ("fleet_ring", SPEED)),
        ("every workload 5% slower",
         {(w, SPEED): 0.95 for w in SYNTHETIC_WORKLOADS}, (), True, ()),
        ("a run with correct false", {}, ("imix_rmw",), False,
         ("imix_rmw", "correctness")),
        ("fleet_ring setup_s 30% worse", {("fleet_ring", "setup_s"): 1.30},
         (), False, ("fleet_ring", "setup_s")),
    ]
    ok = True
    for name, scale, incorrect, passes, words in cases:
        head = [synthetic_run(metrics, {}, i) for i in range(5)]
        tree = [synthetic_run(metrics, scale, i,
                              incorrect if i == 2 else ())
                for i in range(5)]
        _, failures = gate(head, tree, metrics)
        good = (not failures) == passes and all(
            word in f for f in failures for word in words)
        ok = ok and good
        print("%s %s: %s" % ("PASS" if good else "FAIL", name,
                             "; ".join(failures) or "gate passed"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--head", nargs="+", metavar="FILE")
    ap.add_argument("--tree", nargs="+", metavar="FILE")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    if not args.head or not args.tree or len(args.head) != len(args.tree):
        ap.error("--head and --tree need the same number of files")

    def read(path):
        with open(path) as f:
            return f.read()

    lines, failures = gate([read(p) for p in args.head],
                           [read(p) for p in args.tree], load_metrics())
    print("\n".join(lines))
    for f in failures:
        print("FAIL: " + f)
    if failures:
        sys.exit(1)
    print("PASS: %d pairs; every median within its bound, %s >= %.2fx HEAD"
          % (len(args.head), SPEED, SPEED_FLOOR))


if __name__ == "__main__":
    main()
