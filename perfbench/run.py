#!/usr/bin/env python3
"""Builds scanft and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload flow|atpg_opt|serve --seed N \
        --seconds S --trace 0|1

Both builds are offline release builds into $CARGO_TARGET_DIR (default
`.bench_build`). Build output goes to standard error; the benchmark's own
output, whose last line is the JSON result, goes to standard output.
Scratch files (server state, span dumps) go to `.bench_runs`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "perfbench", "Cargo.toml"))
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "scanft-cli", "--bin", "scanft")
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    argv = [bench, *sys.argv[1:],
            "--scanft", os.path.join(release, "scanft"),
            "--out-dir", os.path.join(ROOT, ".bench_runs")]
    sys.stdout.flush()
    os.execv(bench, argv)


if __name__ == "__main__":
    main()
