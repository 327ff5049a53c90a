#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload wan-hint --seed 1 --seconds 20 --trace 0

The Go program in this directory is built into the build directory
(CARGO_TARGET_DIR when set, else .bench_build) with its build cache,
temporary files and journals kept there too, so the run reads and writes
nothing outside the checkout. The last line of standard output is the
JSON result; a failed build or run exits non-zero without one.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840  # the first build compiles the standard library
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(d)


def go_env(bd):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("HOME", "home"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(bd, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # Offline, reproducible builds: no proxy, no checksum database, no
    # toolchain switch, no user configuration.
    env.update(GOPROXY="off", GOSUMDB="off", GOFLAGS="-mod=mod", GOTOOLCHAIN="local",
               GOENV="off", GOWORK="off", CGO_ENABLED="0")
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    bd = build_dir()
    env = go_env(bd)
    binary = os.path.join(bd, "perfbench-bin")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = [binary, "-workdir", os.path.join(bd, "work")] + sys.argv[1:]
    try:
        ran = subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
