#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload psdu-sec48 --seed 1 --seconds 30 --trace 0

The Go toolchain's caches, the binary, and the result and span files all
go under .bench_build/ in the repository root. Before the workload runs,
the committed golden PSDU vectors are re-synthesized in their own process
(so they do not count toward the workload's peak RSS); a mismatch aborts
the run. The last line of standard output is the result JSON.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"

BUILD_TIMEOUT_S = 840
GOLDEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def go_env():
    """Keep every file the Go toolchain writes inside .bench_build."""
    dirs = {
        "GOCACHE": BUILD / "gocache",
        "GOPATH": BUILD / "gopath",
        "GOMODCACHE": BUILD / "gopath" / "pkg" / "mod",
        "GOTMPDIR": BUILD / "tmp",
        "TMPDIR": BUILD / "tmp",
        "XDG_CONFIG_HOME": BUILD / "config",
        "XDG_CACHE_HOME": BUILD / "cache",
    }
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({k: str(v) for k, v in dirs.items()})
    env.update(GOFLAGS="", GOWORK="off", GOENV="off", GOTOOLCHAIN="local",
               GOPROXY="off", CGO_ENABLED="0")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    build = subprocess.run(
        ["go", "build", "-trimpath", "-buildvcs=false", "-o", str(BINARY), "."],
        cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    golden = subprocess.run(
        [str(BINARY), "-golden", str(ROOT / "testdata" / "golden_psdus.json")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=GOLDEN_TIMEOUT_S)
    if golden.returncode != 0:
        sys.exit("perfbench: golden PSDU check failed")

    run = subprocess.run(
        [str(BINARY), "-workload", args.workload, "-seed", str(args.seed),
         "-seconds", str(args.seconds), "-trace", str(args.trace),
         "-out", str(BUILD / "out")],
        cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
