#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload read-cached --seed 1 --seconds 10 --trace 0

The Rust package next to this file is compiled in release mode (into
`$CARGO_TARGET_DIR`, default `.bench_build` at the repository root), then
run with the same arguments. Its standard output is passed through; the
last line is the result object, whose metric names and units are checked
against BENCHMARK.json before it is printed. Exits non-zero, without a
result line, if the build fails, the run fails or the result is malformed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over every source and manifest the benchmark builds from."""
    h = hashlib.sha256()
    roots = ["crates", "vendor", "perfbench/src", "perfbench/golden"]
    files = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]
    for r in roots:
        for d, dirs, names in os.walk(os.path.join(ROOT, r)):
            dirs.sort()
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in sorted(names)]
    for f in files:
        path = os.path.join(ROOT, f)
        if os.path.isfile(path):
            h.update(f.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_head():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check_result(line, spec, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"result line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    env["PERFBENCH_COMMIT"] = f"{git_head() or 'no-git'} src:{source_digest()}"
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run did not finish: {e}")
    lines = run.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        fail(f"run printed no result (exit code {run.returncode})")
    check_result(lines[-1], spec, args.trace)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
