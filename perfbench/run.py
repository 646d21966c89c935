#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--short]

Run from the repository root.  The first run configures and builds the
library and the `perfbench` driver from source into `.bench_build/`
(Release); later runs only rebuild what changed.  Build output goes to
stderr, so stdout carries only the benchmark's report, whose last line is
the JSON result.  Traced runs also write their spans to
`.bench_build/spans-<workload>.tsv`.  Exits with the driver's status: 0 when
every check passed, 1 when a check failed, 2 on a usage or build error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def git_describe():
    """`git describe` of the checkout, or "unknown" outside a git work tree
    of its own (an enclosing repository does not count)."""
    def git(*args):
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True)
        return out.stdout.strip() if out.returncode == 0 else ""
    try:
        top = git("rev-parse", "--show-toplevel")
        if not top or os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return git("describe", "--always", "--dirty") or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--short", action="store_true",
                    help="one cycle per pass (the benchmark's own tests)")
    args = ap.parse_args()
    if not args.workload.replace("-", "").isalnum():
        fail(f"bad workload name {args.workload!r}")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--git", git_describe()]
    if args.short:
        cmd.append("--short")
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(
            ROOT, ".bench_build", f"spans-{args.workload}.tsv")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
