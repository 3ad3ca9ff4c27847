#!/usr/bin/env python3
"""Build the benchmark and run one workload, or repeat one.

One run (the form `BENCHMARK.json` names), from the repository root:

    python3 perfbench/run.py --workload schedule-flat --seed 7 --seconds 20 --trace 0

builds `perfbench` in release mode (offline; `CARGO_TARGET_DIR` is
honoured) and runs it; the last line of stdout is the run's JSON result.

Repeat mode runs a workload K times on seeds B, B+1, ... and prints, per
metric, the median, the quartiles (Python's `statistics.quantiles(n=4)`)
and the interquartile range as a share of the median:

    python3 perfbench/run.py --repeat 10 --workload paper-sweep --seconds 20
    python3 perfbench/run.py --repeat 5 --workload all --seconds 20 --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, os.pardir, "BENCHMARK.json")
WORKLOADS = ["schedule-flat", "schedule-multilevel", "daemon-mixed", "paper-sweep"]


def build():
    """Build the binary; return its path, or exit with cargo's status."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "perfbench":
                exe = msg["executable"]
    if exe is None:
        sys.exit("perfbench: cargo reported no perfbench executable")
    return exe


def expected_metrics(trace):
    """`(name, unit)` of every metric `BENCHMARK.json` asks of a run."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    return [(m["name"], m["unit"]) for m in manifest["per_layer" if trace else "end_to_end"]]


def run_once(exe, workload, seed, seconds, trace, echo):
    """Run one workload; return (exit status, result or None). With
    `echo`, pass its stdout on, the result line only if it holds exactly
    the metrics `BENCHMARK.json` lists, in order and unit."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    code, result = proc.returncode, None
    if code == 0 and lines:
        result = json.loads(lines[-1])
        got = [(k, v["unit"]) for k, v in result["metrics"].items()]
        if got != expected_metrics(trace):
            sys.stderr.write(f"perfbench: metrics {got} differ from BENCHMARK.json\n")
            code, result = 1, None
            lines.pop()
    if echo and lines:
        sys.stdout.write("\n".join(lines) + "\n")
    return code, result


def repeat(exe, args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        results = []
        for i in range(args.repeat):
            seed = args.seed + i
            code, result = run_once(exe, workload, seed, args.seconds, args.trace, False)
            if code != 0 or result is None:
                sys.exit(f"{workload} seed {seed}: exit status {code}")
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"== {workload}: {len(results)} runs, trace={args.trace}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"   all correct: {all(r['correct'] for r in results)}; failed shares: {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"   {name:<36} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"iqr/median {spread:8.4f}  [{unit}]")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run K times on consecutive seeds and summarise")
    args = p.parse_args()
    if args.repeat == 0 and args.workload == "all":
        p.error("--workload all needs --repeat")
    exe = build()
    if args.repeat:
        repeat(exe, args)
        return 0
    code, _ = run_once(exe, args.workload, args.seed, args.seconds, args.trace, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
