#!/usr/bin/env python3
"""Builds and runs one workload of the ropuf benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Rust package of its
own (perfbench/Cargo.toml); it is built in release mode into
$CARGO_TARGET_DIR (default .bench_build) before every run, which is a
no-op once built.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json for
--trace 0, the per-layer metrics for --trace 1 (a layer the workload
does not run reads 0). The lines before it name every figure with its
unit. The exit code is nonzero when an output check fails or the
benchmark cannot be built or run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Stay inside the 180 s a run may take, set-up included.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build output goes to stderr so stdout carries only the run's report.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    binary = os.path.join(target, "release", "perfbench")
    # A fixed mmap threshold: glibc otherwise raises it after each large
    # free, and how much freed memory the process keeps resident (peak_rss_mb)
    # then depends on which thread freed what first.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", ".perfbench",
    ]
    # A terminated run.py still stops and waits for the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as run:
        try:
            stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        finally:
            if run.poll() is None:
                run.kill()
                run.wait()
    lines = stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{args.workload} did not end with a JSON result (exit code {run.returncode})")
    for line in lines[:-1]:
        print(line)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    produced = result["metrics"]
    metrics, absent = {}, []
    for m in wanted:
        got = produced.get(m["name"])
        if got is None or got["value"] is None:
            if not args.trace:
                fail(f"{args.workload} did not measure {m['name']}")
            absent.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if absent:
        print(f"layers {args.workload} does not run (reported as 0): {', '.join(absent)}")
    print(json.dumps({
        "correct": bool(result["correct"]) and run.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
