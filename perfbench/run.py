#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload observed --seed 1 --seconds 25 --trace 0

It builds the Go program in perfbench/ with every Go cache and temporary
directory under .bench_build/, then runs the workload and prints its
output. The last line is the result JSON.
"""

import argparse
import os
import subprocess
import sys

# Every run after the first, which builds, must end within this many
# seconds.
RUN_BUDGET = 175
BUILD_TIMEOUT = 800


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env(build):
    env = dict(os.environ)
    for d in ("gocache", "gopath", "tmp", "home", "config", "cache"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        TMPDIR=os.path.join(build, "tmp"),
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", "internal", os.path.join("perfbench", "go.mod"), os.path.join("baselines", "quick.json")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need)

    build = os.path.join(root, ".bench_build")
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"), env=env, timeout=BUILD_TIMEOUT)
    if built.returncode != 0:
        fail("build failed")

    try:
        r = subprocess.run(
            [binary, "-workload", args.workload, "-seed", str(args.seed),
             "-seconds", str(args.seconds), "-trace", str(args.trace),
             "-workdir", os.path.join(build, "run"),
             "-spans", os.path.join(build, "spans")],
            env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_BUDGET)
    except subprocess.TimeoutExpired:
        fail("run exceeded %ds" % RUN_BUDGET)
    sys.stdout.write(r.stdout)
    if r.returncode != 0:
        fail("run failed with exit code %d" % r.returncode)


if __name__ == "__main__":
    main()
