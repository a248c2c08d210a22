#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kv-tcp --seed 1 --seconds 10 --trace 0

The binary, the Go build cache and the spans of traced runs go under
$CARGO_TARGET_DIR (default .bench_build). The last line of standard output
is the benchmark's JSON result; the exit status is the benchmark's.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "server"))
            and os.path.isfile(os.path.join(src, "go.mod"))):
        print("perfbench: run from the repository root; its sources were not found",
              file=sys.stderr)
        return 2

    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOMODCACHE=os.path.join(out, "gomod"),
               GOPATH=os.path.join(out, "gopath"),
               XDG_CONFIG_HOME=os.path.join(out, "config"),
               GOTOOLCHAIN="local",
               GOFLAGS="",
               GOWORK="off")
    binary = os.path.join(out, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["-spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
