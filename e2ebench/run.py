#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Single-run form (the last stdout line is the JSON result):

    python3 e2ebench/run.py --workload eco_mcmm --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another.

Repeat form (N back-to-back runs of one workload on seeds S..S+N-1; prints
median, quartiles and quartile spread of every metric against its bound
in BENCHMARK.json, with the commit, nproc, CPU model and engine threads):

    python3 e2ebench/run.py --repeat 10 --workload serve_mixed [--seed 1]
        [--seconds 20] [--trace 0] [--threads 1]

The build goes to $CARGO_TARGET_DIR, or `.bench_build` under the current
directory when it is unset. Run from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "insta-e2ebench"
WORKLOADS = ["eco_mcmm", "place_refresh", "serve_mixed"]


def build():
    """Builds the benchmark; returns the binary path or None on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"cannot start cargo: {e}", file=sys.stderr)
        return None
    binary = os.path.join(target, "release", BINARY)
    if done.returncode != 0 or not os.path.isfile(binary):
        print("benchmark build failed", file=sys.stderr)
        return None
    return binary


def quartile_summary(values):
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def machine():
    """Commit, nproc and CPU model of this machine and checkout."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return commit, os.cpu_count(), model


def repeat(binary, args, workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    catalogue = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in catalogue}
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(args.trace), "--threads", str(args.threads)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            print(f"run with seed {seed} failed (exit {out.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} {values}", flush=True)
    commit, nproc, model = machine()
    print(f"workload {workload}  runs {len(runs)}  seeds {args.seed}..{args.seed + len(runs) - 1}"
          f"  seconds {seconds}  trace {args.trace}")
    print(f"commit {commit}  nproc {nproc}  cpu {model}  engine_threads {args.threads}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}")
    print(f"{'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med, q1, q3, spread = quartile_summary(values)
        bound = bounds[name]
        ratio = f"{spread / bound:12.2f}" if bound else f"{'-':>12}"
        shown = f"{bound:6.2f}" if bound else f"{'-':>6}"
        print(f"{name:<32} {unit:<6} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {shown} {ratio}")
    return 0 if all(r["correct"] for r in runs) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--repeat", type=int, default=0, help="run N times on consecutive seeds")
    args = p.parse_args()
    if args.repeat <= 0 and args.seconds is None:
        p.error("--seconds is required")
    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat > 0:
        return max(repeat(binary, args, w) for w in workloads)
    status = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--threads", str(args.threads)]
        status = status or subprocess.run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
