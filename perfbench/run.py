#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The release build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to stderr, so the last line of
stdout is the benchmark's result object. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    os.chdir(root)
    exe = os.path.join(target, "release", "rambda-perfbench")
    # Replace this process, so the benchmark's peak RSS is its own.
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
