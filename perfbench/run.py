#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload wire_topk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Builds gbda_perfbench from the checkout's sources into .bench_build/ (the
first call compiles; later calls only re-check), runs the workload and
prints the environment block and, as the last line, the result object.
`--workload all` runs every workload in turn and prints one line per
workload holding its name, environment block and result. Exits non-zero
when the build fails, the sources are missing, or any answer was wrong.
"""
import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORK = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD, "gbda_perfbench")
WORKLOADS = ("wire_topk", "scan_threshold", "dynamic_churn", "approx_topk")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die("no %s next to perfbench/; run from the root of a full "
                "checkout" % required, 2)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gbda_perfbench",
                  "-j", jobs])
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                                       timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                die("build step %s failed: %s" % (step[:2], err), 3)
            if code != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                die("build failed (log: %s)" % log_path, 3)


def run(workload, seed, seconds, trace, tamper=False):
    """Runs the binary once; returns (exit code, env, result)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--work-dir=" + WORK]
    if tamper:
        cmd.append("--tamper")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 4)
    finally:
        for artifact in glob.glob(os.path.join(WORK, "*.gba3")):
            os.remove(artifact)
    lines = proc.stdout.strip().splitlines()
    try:
        env = json.loads(lines[-2])["env"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        return (proc.returncode or 5), None, None
    return proc.returncode, env, result


def self_test():
    """Smoke run of every workload: each named metric prints with its unit,
    traced runs print every per-layer metric (the binary fails a run that
    leaves out one its layers must set), and a tampered answer trips the
    check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        for trace in (0, 1):
            code, _, result = run(workload, 1, 1, trace)
            if code != 0 or result is None or result["correct"] is not True:
                problems.append("%s trace=%d: exit %s" % (workload, trace, code))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append("%s trace=%d: metrics/units differ: %s" %
                                (workload, trace, sorted(set(got.items()) ^
                                                         set(expect[trace].items()))))
            if any(not isinstance(v["value"], (int, float))
                   for v in result["metrics"].values()):
                problems.append("%s trace=%d: non-numeric value" % (workload, trace))
            if result["attempted"] < 1:
                problems.append("%s trace=%d: nothing attempted" % (workload, trace))
        code, _, result = run(workload, 1, 1, 0, tamper=True)
        if code == 0 or (result is not None and result["correct"] is not False):
            problems.append("%s: tampered answer was not detected" % workload)
        print("self-test %s: %s" %
              (workload, "ok" if len(problems) == before else "FAILED"),
              flush=True)
    for p in problems:
        print("  " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload == "all":
        worst = 0
        for workload in WORKLOADS:
            code, env, result = run(workload, args.seed, args.seconds,
                                    args.trace)
            print(json.dumps({"workload": workload, "env": env,
                              "result": result}), flush=True)
            worst = worst or code or (5 if result is None else 0)
        sys.exit(worst)
    code, env, result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        die("%s produced no result (exit %d)" % (args.workload, code), code or 5)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
