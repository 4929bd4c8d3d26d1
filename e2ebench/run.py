#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark (see README.md).

Run from the repository root:

  python3 e2ebench/run.py --workload k12_hot --seed 1 --seconds 16 --trace 0
      one run; the last line of stdout is the result JSON.
  python3 e2ebench/run.py repeat --workload k12_hot --runs 10 --first-seed 1 \
      --out set_a.json [--seconds S] [--trace 0|1]
      several runs with consecutive seeds; prints each metric's median and
      quartiles and saves every run's result.
  python3 e2ebench/run.py compare set_a.json set_b.json
      checks two sets of runs of one workload against the bounds in
      BENCHMARK.json: each end-to-end metric's quartile spread (all but
      setup_s) within its bound, the second median no worse than the first
      by more than the bound, and the same share of failed operations.
  python3 e2ebench/run.py test
      builds and runs the test of the benchmark's own checks.

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(target):
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if rc != 0:
            sys.exit("e2ebench: cmake configure failed")
    rc = subprocess.call(["cmake", "--build", out, "-j4", "--target", target],
                         stdout=log, stderr=log)
    if rc != 0:
        sys.exit("e2ebench: build failed")
    return os.path.join(out, target)


def run_once(binary, args):
    """Runs the benchmark binary; returns (exit code, result dict or None)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    e2e = None
    for line in lines:
        if line.startswith("E2E "):
            e2e = json.loads(line[4:])
    if result is not None and e2e is not None:
        result["e2e_metrics"] = e2e
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_values(runs, key="metrics"):
    names = []
    for run in runs:
        for name in run.get(key, {}):
            if name not in names:
                names.append(name)
    return {n: [r[key][n]["value"] for r in runs if n in r.get(key, {})]
            for n in names}


def summarize(runs, key="metrics"):
    print("%-26s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3",
                                        "iqr/med"))
    for name, values in metric_values(runs, key).items():
        q1, med, q3 = quartiles(values)
        share = (q3 - q1) / med if med else float("nan")
        print("%-26s %14.6g %14.6g %14.6g %8.4f" % (name, q1, med, q3, share))


def cmd_repeat(argv):
    import argparse
    ap = argparse.ArgumentParser(prog="run.py repeat")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=float(load_spec()["run_seconds"]))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    binary = build("e2ebench")
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = ["--workload", args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        rc, result = run_once(binary, cmd)
        if result is None:
            sys.exit("run with seed %d failed (exit %d)" % (seed, rc))
        result["seed"] = seed
        runs.append(result)
    with open(args.out, "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace,
                   "runs": runs}, f, indent=1)
    summarize(runs)
    if args.trace:
        print("end-to-end figures of the traced runs:")
        summarize(runs, "e2e_metrics")
    return 0


def cmd_compare(argv):
    if len(argv) != 2:
        sys.exit("usage: run.py compare SET_A.json SET_B.json")
    sets = []
    for path in argv:
        with open(path) as f:
            sets.append(json.load(f)["runs"])
    spec = load_spec()
    ok = True
    print("%-24s %8s %10s %10s %12s %12s %9s" % (
        "metric", "bound", "spread A", "spread B", "median A", "median B",
        "worse by"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds, spreads = [], []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            meds.append(med)
            spreads.append((q3 - q1) / med)
        if m["better"] == "lower":
            worse = (meds[1] - meds[0]) / meds[0]
        else:
            worse = (meds[0] - meds[1]) / meds[0]
        bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
        ok = ok and not bad
        print("%-24s %8.3f %10.4f %10.4f %12.6g %12.6g %9.4f %s" % (
            name, bound, spreads[0], spreads[1], meds[0], meds[1], worse,
            "FAIL" if bad else "ok"))
    shares = []
    for runs in sets:
        att = sum(r["attempted"] for r in runs)
        fail = sum(r["failed"] for r in runs)
        shares.append([r["failed"] / r["attempted"] for r in runs])
        print("failed %d of %d operations" % (fail, att))
    if len(set(x for s in shares for x in s)) > 1:
        print("FAIL: the share of failed operations differs between runs")
        ok = False
    print("sets agree" if ok else "sets DISAGREE")
    return 0 if ok else 1


def cmd_test(argv):
    binary = build("e2ebench_checks_test")
    return subprocess.call([binary], cwd=ROOT)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "repeat":
        return cmd_repeat(argv[1:])
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv and argv[0] == "test":
        return cmd_test(argv[1:])
    binary = build("e2ebench")
    rc, _ = run_once(binary, argv)
    return rc


if __name__ == "__main__":
    sys.exit(main())
