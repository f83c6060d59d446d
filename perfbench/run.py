#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ (which compiles the
repository's libraries from src/) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build/, relative to the current directory. Later calls
rebuild incrementally. The benchmark binary then runs one workload; its
self-report goes to stderr and its last stdout line is the JSON result. A
traced run (--trace 1) also writes a Chrome trace-event file under
<build>/traces/. The exit code is the benchmark's: non-zero when the build
fails, the sources are missing, or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_music_movie", "serve_wide_catalog")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170
# Knobs the libraries read from the environment; the benchmark measures the
# default configuration, so none of them may leak in from the caller.
CLEARED_ENV = ("NMCDR_THREADS", "NMCDR_BACKEND", "NMCDR_FUSION", "NMCDR_OBS",
               "NMCDR_OBS_PROFILE", "NMCDR_BENCH_SCALE")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at %s; cannot build" % os.path.join(ROOT, "src"))
        return None
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-8000:])
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; required with --workload")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="run the top-K checker self-test")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")

    binary = build()
    if binary is None:
        return 2
    workload = "checker_selftest" if args.selftest else args.workload
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--trace", args.trace]
    if args.seconds is not None:
        cmd += ["--seconds", repr(args.seconds)]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 3
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        log("the benchmark printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
