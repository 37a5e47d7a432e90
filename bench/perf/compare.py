#!/usr/bin/env python3
"""Compare sets of benchmark runs against the bounds in BENCHMARK.json.

Inputs are directories holding the result files perf.exe writes
(<out>/<workload>.json, one --out directory per run); every untraced
result file found below a directory is one run.

  compare.py pairs PARENT_DIR CHANGE_DIR [--claim METRIC:WORKLOAD]
      Parent vs change over at least ten pairs, run alternately. The
      claim holds when the change wins at least nine tenths of the pairs
      (ties count for neither side) and the medians differ, in the
      claimed direction, by more than the parent's interquartile range.
      Every other (metric, workload) must not be worse than the parent's
      median by more than its bound; where the parent's own spread is
      wider than the bound it is "unresolved" unless every change run
      beats every parent run. The share of failed operations must not
      rise.

  compare.py repeat FIRST_DIR SECOND_DIR
      Two sets of runs of one commit: each metric's spread (interquartile
      range over median) must stay within its bound, setup_s excepted,
      and the second median must not be worse than the first by more than
      the bound.

Exit status: 0 when every check passes, 1 otherwise, 2 on bad input.
Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_runs(directory):
    """workload -> list of untraced result documents, oldest first."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "**", "*.json"), recursive=True):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or doc.get("mode") != "untraced" or "metrics" not in doc:
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["provenance"]["started_unix"])
    return runs


def values(docs, metric):
    return [d["metrics"][metric]["value"] for d in docs]


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, _, q3 = quartiles(xs)
    med = statistics.median(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    gap = (second - first) if better == "lower" else (first - second)
    return gap / abs(first) if first else float("inf")


def failed_share(docs):
    attempted = sum(d["attempted"] for d in docs)
    return sum(d["failed"] for d in docs) / attempted if attempted else 0.0


def common_workloads(a, b):
    names = sorted(set(a) & set(b))
    if not names:
        sys.exit("compare.py: no workload has untraced runs in both sets")
    return names


def repeat(bench, first, second):
    ok = True
    print("%-12s %-20s %10s %10s %8s %8s %8s  %s" % (
        "workload", "metric", "median1", "median2", "spread1", "spread2", "bound", "verdict"))
    for w in common_workloads(first, second):
        for m in bench["end_to_end"]:
            a, b = values(first[w], m["name"]), values(second[w], m["name"])
            if len(a) < 2 or len(b) < 2:
                sys.exit("compare.py: %s needs at least two runs per set" % w)
            s1, s2 = spread(a), spread(b)
            drift = worse_by(statistics.median(a), statistics.median(b), m["better"])
            bad = []
            if m["name"] != "setup_s" and max(s1, s2) > m["bound"]:
                bad.append("spread over bound")
            if drift > m["bound"]:
                bad.append("second median worse by %.1f%%" % (100 * drift))
            ok &= not bad
            print("%-12s %-20s %10.5g %10.5g %7.2f%% %7.2f%% %7.1f%%  %s" % (
                w, m["name"], statistics.median(a), statistics.median(b),
                100 * s1, 100 * s2, 100 * m["bound"], "; ".join(bad) or "ok"))
    return ok


def alternating(parent, change):
    parent_first = sum(p["provenance"]["started_unix"] < c["provenance"]["started_unix"]
                       for p, c in zip(parent, change))
    return abs(2 * parent_first - len(parent)) <= 1


def pairs(bench, parent, change, claim):
    ok = True
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if claim:
        c_metric, _, c_workload = claim.partition(":")
        if c_metric not in metrics or c_workload not in parent:
            sys.exit("compare.py: unknown claim %s" % claim)
    for w in common_workloads(parent, change):
        p_docs, c_docs = parent[w], change[w]
        if len(p_docs) != len(c_docs) or len(p_docs) < 10:
            sys.exit("compare.py: %s needs at least ten pairs (have %d parent, %d change runs)"
                     % (w, len(p_docs), len(c_docs)))
        if not alternating(p_docs, c_docs):
            sys.exit("compare.py: %s runs did not alternate which side ran first" % w)
        print("== %s: %d pairs" % (w, len(p_docs)))
        for name, m in metrics.items():
            p, c = values(p_docs, name), values(c_docs, name)
            pm, cm = statistics.median(p), statistics.median(c)
            q1, _, q3 = quartiles(p)
            cq1, _, cq3 = quartiles(c)
            row = "  %-20s parent %10.5g [%0.5g, %0.5g]  change %10.5g [%0.5g, %0.5g]" % (
                name, pm, q1, q3, cm, cq1, cq3)
            if claim and (name, w) == (c_metric, c_workload):
                wins = sum((ci < pi) if m["better"] == "lower" else (ci > pi)
                           for pi, ci in zip(p, c))
                gain = -worse_by(pm, cm, m["better"]) * abs(pm)
                met = wins >= 0.9 * len(p) and gain > (q3 - q1)
                ok &= met
                print(row + "  claim %s: change won %d/%d pairs, median gap %.5g vs parent IQR %.5g"
                      % ("met" if met else "NOT met", wins, len(p), gain, q3 - q1))
                continue
            drift = worse_by(pm, cm, m["better"])
            all_better = (max(c) < min(p)) if m["better"] == "lower" else (min(c) > max(p))
            if drift > m["bound"]:
                verdict, ok = "REGRESSED by %.1f%% (bound %.0f%%)" % (100 * drift, 100 * m["bound"]), False
            elif spread(p) > m["bound"] and not all_better:
                verdict = "unresolved: parent spread %.1f%% exceeds bound" % (100 * spread(p))
            else:
                verdict = "ok (%+.1f%%)" % (-100 * drift)
            print(row + "  " + verdict)
        pf, cf = failed_share(p_docs), failed_share(c_docs)
        if cf > pf:
            ok = False
            print("  failed operations ROSE: %.4f%% -> %.4f%%" % (100 * pf, 100 * cf))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["pairs", "repeat"])
    ap.add_argument("first", help="parent (pairs) or first set (repeat)")
    ap.add_argument("second", help="change (pairs) or second set (repeat)")
    ap.add_argument("--claim", help="METRIC:WORKLOAD the change claims to improve (pairs)")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    first, second = load_runs(args.first), load_runs(args.second)
    if args.mode == "repeat":
        ok = repeat(bench, first, second)
    else:
        ok = pairs(bench, first, second, args.claim)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
