#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
simulator's libraries and the driver into .bench_build/perfbench (Release);
later calls only re-check the build. The driver's own output (per-round
lines and the exp::Report tables) goes to .bench_out/<workload>-seed<N>-
trace<T>.log, traced runs also write their spans there, and the last line
printed here is the run's JSON result. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
# The driver's round count follows from --seconds; this only guards against
# a hung run.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no simulator sources beside perfbench/ (run from a full checkout)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def driver_env():
    # Worker-pool sizes are fixed per workload (the driver sets
    # OPERA_POOL_THREADS itself); never inherit the test suite's.
    env = dict(os.environ)
    env.pop("OPERA_TEST_THREADS", None)
    return env


def run_driver(args, log_path):
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_TIMEOUT_S, env=driver_env())
        except subprocess.TimeoutExpired:
            fail(f"driver exceeded {RUN_TIMEOUT_S} s; see {log_path}")
        log.write(proc.stdout)
    return proc


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")

    build()
    os.makedirs(OUT, exist_ok=True)
    if a.selftest:
        log_path = os.path.join(OUT, "selftest.log")
        proc = run_driver(["selftest"], log_path)
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)

    commit = commit_id()
    log_path = os.path.join(OUT, f"{a.workload}-seed{a.seed}-trace{a.trace}.log")
    # setup_s runs from the spawn: time.monotonic_ns() reads CLOCK_MONOTONIC,
    # the clock of the driver's std::chrono::steady_clock.
    proc = run_driver(["run", "--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace),
                       "--out", OUT, "--commit", commit,
                       "--start-ns", str(time.monotonic_ns())], log_path)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}; see {log_path}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed driver result: " + lines[-1])
    for line in lines:
        if line.startswith(("# perfbench", "# rounds", "# spans")):
            print(line)
    print(f"# log: {os.path.relpath(log_path, ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
