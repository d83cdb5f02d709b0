#!/usr/bin/env python3
"""Summarise or compare hostbench result sets.

    python3 hostbench/compare.py RUNS.jsonl            # spread of one set
    python3 hostbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

A result set is a JSON-lines file written by `hostbench/run.py --record`.
For every workload and metric it prints the run count, median and
quartiles (statistics.quantiles, n=4).

One set: the spread (Q3 - Q1) / median of each end-to-end metric against
its bound in BENCHMARK.json: "steady" below a third of the bound, "ok"
below the bound, "noisy" above it (setup_s is exempt from the spread rule).

Two sets: a verdict per end-to-end metric, by the metric's bound:
  regressed   NEW's median is worse than BASE's by more than the bound
  improved    NEW's median is better by more than the bound and by more
              than BASE's own spread
  unresolved  either set's spread exceeds the bound, unless every NEW run
              reads better than every BASE run (then: improved)
  agree       otherwise
Per-layer metrics whose unit starts with "virtual" are behaviour, not speed:
for each (workload, seed) in both sets they must be exactly equal, and any
difference is listed as a behaviour change. Host facts (CPU, flags, nproc,
compiler, build type, kernel threads) that differ between or within the sets
are flagged, since numbers taken under different facts do not compare.

Exit code 1 when a metric regressed or behaviour changed.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_metric(runs, trace):
    """{(workload, metric): [values]} over the runs with the given trace flag."""
    table = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, m in run["result"]["metrics"].items():
            table.setdefault((run["workload"], name), []).append(m["value"])
    return table


def facts_of(runs):
    seen = {}
    for run in runs:
        for key, value in run["facts"].items():
            seen.setdefault(key, set()).add(json.dumps(value))
    return seen


def flag_facts(label, runs, other=None):
    mine = facts_of(runs)
    for key, values in sorted(mine.items()):
        if len(values) > 1:
            print("WARNING: %s runs differ in %s: %s" % (label, key,
                                                          sorted(values)))
    if other is None:
        return
    theirs = facts_of(other)
    for key in sorted(set(mine) | set(theirs)):
        if mine.get(key) != theirs.get(key):
            print("WARNING: host fact %s differs: %s vs %s"
                  % (key, sorted(theirs.get(key, [])), sorted(mine.get(key, []))))


def summarise(runs, bounds):
    flag_facts("the", runs)
    print("%-16s %-14s %3s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    for (workload, name), values in sorted(by_metric(runs, 0).items()):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "exempt"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "ok"
        else:
            verdict = "noisy"
        print("%-16s %-14s %3d %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            workload, name, len(values), med, q1, q3, spread,
            "" if bound is None else "%.3g" % bound, verdict))
    return 0


def verdict(base, new, bound, lower_better):
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1 if lower_better else -1
    change = sign * (nmed - bmed) / bmed  # > 0 means worse
    base_spread = (bq3 - bq1) / bmed
    new_spread = (nq3 - nq1) / nmed
    all_better = (max(new) < min(base)) if lower_better else (min(new) > max(base))
    if change > bound:
        return "regressed", change
    if base_spread > bound or new_spread > bound:
        return ("improved" if all_better else "unresolved"), change
    if -change > max(bound, base_spread):
        return "improved", change
    return "agree", change


def behaviour_changes(base_runs, new_runs):
    """Virtual-time metrics that differ for the same workload and seed."""
    def index(runs):
        out = {}
        for run in runs:
            for name, m in run["all_metrics"].items():
                if m["unit"].startswith("virtual"):
                    out[(run["workload"], run["seed"], name)] = m["value"]
        return out
    base, new = index(base_runs), index(new_runs)
    return sorted((k, base[k], new[k]) for k in set(base) & set(new)
                  if base[k] != new[k])


def compare(base_runs, new_runs, specs):
    flag_facts("base", base_runs)
    flag_facts("new", new_runs)
    flag_facts("", new_runs, base_runs)
    base, new = by_metric(base_runs, 0), by_metric(new_runs, 0)
    status = 0
    print("%-16s %-12s %12s %12s %12s %12s %9s %6s  %s" % (
        "workload", "metric", "base_med", "base_iqr", "new_med", "new_iqr",
        "change", "bound", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        b, n = base[key], new[key]
        bq1, bmed, bq3 = quartiles(b)
        nq1, nmed, nq3 = quartiles(n)
        v, change = verdict(b, n, spec["bound"], spec["better"] == "lower")
        if v == "regressed":
            status = 1
        print("%-16s %-12s %12.6g %12.6g %12.6g %12.6g %+8.2f%% %6.3g  %s" % (
            workload, name, bmed, bq3 - bq1, nmed, nq3 - nq1, 100 * change,
            spec["bound"], v))
    changes = behaviour_changes(base_runs, new_runs)
    for (workload, seed, name), b, n in changes:
        print("BEHAVIOUR CHANGED: %s seed %s %s: %r -> %r"
              % (workload, seed, name, b, n))
    if changes:
        status = 1
    return status


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    runs = [load_runs(p) for p in sys.argv[1:]]
    if len(runs) == 1:
        return summarise(runs[0], {k: v["bound"] for k, v in specs.items()})
    return compare(runs[0], runs[1], specs)


if __name__ == "__main__":
    sys.exit(main())
