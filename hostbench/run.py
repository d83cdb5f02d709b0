#!/usr/bin/env python3
"""Host wall-clock benchmark of the secureTF reproduction.

    python3 hostbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call builds hostbench/ (which
compiles src/) into .bench_build/hostbench with CMake; later calls rebuild
incrementally. The workload runs in one child process, repeating its pass
(fresh set-up, timed phase, output checks) for --seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json; with --trace 1 they are its per_layer
metrics, taken from a separate traced run that also writes its spans as
Chrome trace-event JSON under .bench_build/hostbench/traces/. A per_layer
metric that the workload does not exercise reads 0. End-to-end times are
scaled to a reference host speed by calibration loops timed beside each
phase (hostbench/calibration.h); hostbench/plan.json defines every metric.

Lines before it report the host facts the numbers depend on, the stated
input sizes and every output check. A failed check makes the result
incorrect, counts as a failed operation, and makes the exit code 1.

--record FILE appends the run (facts, checks, result, and every metric the
run produced) as one JSON line; hostbench/compare.py reads such files.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD_DIR, "hostbench")
CHILD_TIMEOUT_S = 170


def die(message, code=2):
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def host_facts():
    """CPU facts from /proc/cpuinfo; crypto speed depends on the flags."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": model,
        "aes_ni": "aes" in flags,
        "pclmulqdq": "pclmulqdq" in flags,
        "sha_ni": "sha_ni" in flags,
    }


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ tree at %s: run from a checkout of the repository" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "hostbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_child(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s.seed%d.trace.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        die("workload %s timed out after %d s" % (args.workload,
                                                  CHILD_TIMEOUT_S), 1)
    if done.returncode != 0:
        die("workload %s failed (exit %d)" % (args.workload, done.returncode),
            1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        die("workload %s printed nothing" % args.workload, 1)
    return json.loads(lines[-1])


def select_metrics(bench, raw, trace):
    """The contract's metric set: end_to_end untraced, per_layer traced."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    if trace:
        listed = {spec["name"] for spec in wanted}
        unlisted = sorted(set(raw) - listed - {"peak_rss_mb", "setup_s",
                                               "pass_s", "op_ms"})
        if unlisted:
            die("per-layer metrics missing from BENCHMARK.json: "
                + ", ".join(unlisted), 1)
    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = raw.get(name)
        if got is None:
            if not trace:
                die("metric %s missing from the run" % name, 1)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got["unit"] != unit:
            die("metric %s has unit %s, BENCHMARK.json says %s"
                % (name, got["unit"], unit), 1)
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def conservation_check(metrics):
    """Module self times plus unattributed time equal the traced wall time."""
    total = metrics["unattributed_s"]["value"] + sum(
        v["value"] for k, v in metrics.items() if k.endswith(".span_self_s"))
    wall = metrics["bench.traced_wall_s"]["value"]
    return {"name": "trace.self_times_sum_to_wall",
            "ok": abs(total - wall) <= 1e-6 * max(1.0, wall),
            "detail": "%.9f s vs %.9f s" % (total, wall)}


def main():
    plan = load_json(os.path.join(HERE, "plan.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=plan["seeds"]["default"])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run to this JSON-lines file")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("unknown workload %s (one of %s)" % (args.workload, ", ".join(names)))
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    facts = host_facts()
    raw = run_child(args)
    facts.update(raw["facts"])

    checks = raw["checks"]
    if args.trace:
        checks.append(conservation_check(raw["metrics"]))
    failed_checks = [c for c in checks if not c["ok"]]
    attempted = raw["attempted"] + len(checks)
    failed = raw["failed"] + len(failed_checks)
    raw["metrics"]["failed_share"] = {"value": failed / attempted,
                                      "unit": "ratio"}
    result = {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": select_metrics(bench, raw["metrics"], args.trace),
    }

    print("facts: " + json.dumps(facts, sort_keys=True))
    print("config: " + json.dumps(raw["config"], sort_keys=True))
    for c in checks:
        print("check %-48s %s %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                     c["detail"]))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "seconds": args.seconds,
                                "facts": facts, "config": raw["config"],
                                "checks": checks, "result": result,
                                "all_metrics": raw["metrics"]}) + "\n")
    print(json.dumps(result))
    sys.exit(1 if failed_checks else 0)


if __name__ == "__main__":
    main()
