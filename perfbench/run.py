#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). The benchmark's output is passed through; its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero, without a result line, if the build or the run
fails or the result is malformed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Builds the release binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        check=True,
        env=env,
        stdout=sys.stderr,
    )
    return os.path.join(target, "release", "fpc-perfbench")


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def parse_result(stdout, trace):
    """The result object on the last line of the benchmark's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number of at least 1")
    names, declared = set(result["metrics"]), declared_metrics(trace)
    if names != declared:
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(names ^ declared)}")
    return result


def traced(argv):
    """Whether the arguments ask for the per-layer run."""
    i = argv.index("--trace") if "--trace" in argv else -1
    return 0 <= i < len(argv) - 1 and argv[i + 1] == "1"


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    try:
        parse_result(proc.stdout, traced(argv))
    except ValueError as e:
        print(f"run.py: malformed result: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
