#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 perfbench/run.py --workload grid|serve --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a checkout. It configures and builds
perfbench/ (the simulator's libraries from src/ plus the perfbench
program) into .bench_build/perfbench at the checkout root, then runs
it. Build output goes to stderr; the program's stdout is passed
through, and its last line is the result as one JSON object. With
--trace 1 the recorded spans are written to
.bench_build/trace-<workload>-<seed>.json. See perfbench/README.md.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("grid", "serve")
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def seed_arg(text):
    if not text.isdigit() or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"malformed seed {text!r}: want an integer 0..2^64-1")
    return int(text)


def seconds_arg(text):
    if not text.isdigit() or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError(
            f"malformed seconds {text!r}: want an integer 1..3600")
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the simulator benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=seconds_arg)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def build():
    """Configure (once) and build the program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no simulator sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", str(HERE / "digests")]
    if args.trace:
        cmd += ["--trace-out", str(ROOT / ".bench_build" /
                                   f"trace-{args.workload}-{args.seed}.json")]
    # The simulator reads DLP_* switches from the environment; the
    # benchmark runs with none of them set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DLP_")}
    sys.stdout.flush()
    code = subprocess.run(cmd, env=env, cwd=ROOT).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
