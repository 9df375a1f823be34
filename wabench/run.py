#!/usr/bin/env python3
"""The repository benchmark: build from source, run one workload, check.

    python3 wabench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 wabench/run.py --selftest

NAME is dense, cacg_batch16 or cacg_single (see src/workloads.hpp).

Run from the root of a checkout.  The first call configures and builds
the library and the runner (Release) under .bench_build/wabench; later
calls only rebuild what changed.  The runner prints '#' context lines
and, last, one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1.  This script checks that line against BENCHMARK.json
before passing it on, and exits non-zero if the build, the run or the
check fails.  WA_* environment variables are not passed to the runner,
so a stray WA_KERNELS or WA_TRANSPORT cannot change what is measured.

--selftest builds and runs the self-test of the benchmark's statistics
and checks, and validates its sample result lines against
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wabench"
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"wabench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "dist" / "machine.hpp").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / target


def schema(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Problems with a result line, as a list of strings."""
    try:
        res = json.loads(line)
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if not isinstance(res, dict) or sorted(res) != sorted(
            ["correct", "attempted", "failed", "metrics"]):
        return ["result keys must be correct, attempted, failed, metrics"]
    if not isinstance(res["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            problems.append(f"{key} must be an integer")
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        problems.append("attempted must be at least 1")
    want = schema(trace)
    got = res["metrics"]
    if not isinstance(got, dict) or list(got) != [n for n, _ in want]:
        problems.append("metric names differ from BENCHMARK.json")
        return problems
    for name, unit in want:
        m = got[name]
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            problems.append(f"{name}: needs exactly value and unit")
        elif m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']!r}, expected {unit!r}")
        elif not isinstance(m["value"], (int, float)) or isinstance(
                m["value"], bool):
            problems.append(f"{name}: value is not a number")
    return problems


def run_child(cmd, timeout):
    env = {k: v for k, v in os.environ.items() if not k.startswith("WA_")}
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} did not finish within {timeout:.0f} s")


def selftest():
    binary = build("wabench_selftest")
    done = run_child([str(binary)], RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        fail("self-test failed")
    samples = [l[len("# schema "):] for l in done.stdout.splitlines()
               if l.startswith("# schema ")]
    if len(samples) != 2:
        fail("self-test printed no schema samples")
    for trace, line in enumerate(samples):
        problems = check_result(line, bool(trace))
        if problems:
            fail("schema sample: " + "; ".join(problems))
    print("selftest: result schema matches BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("wabench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / f"trace-{args.workload}-{args.seed}.jsonl")]
    done = run_child(cmd, RUN_TIMEOUT_S)
    out = done.stdout
    if done.returncode != 0:
        sys.stderr.write(out)
        fail(f"runner exited with {done.returncode}")
    lines = out.rstrip("\n").splitlines()
    problems = check_result(lines[-1], bool(args.trace)) if lines else [
        "no output"]
    if problems:
        sys.stderr.write(out)
        fail("bad result line: " + "; ".join(problems))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
