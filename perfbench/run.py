#!/usr/bin/env python3
"""Builds the rcs-sim benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload <regen|query_cold|query_hot|all> \
        --seed <n> --seconds <s> --trace <0|1> [--out <dir>]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. Build output goes to
$CARGO_TARGET_DIR, or .bench_build when that is unset. Every argument is
passed to the benchmark binary unchanged; its stdout ends with one JSON
result line and its exit code is the wrapper's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
