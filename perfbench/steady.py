#!/usr/bin/env python3
"""Steadiness mode: repeat every workload round-robin and summarize.

    python3 perfbench/steady.py --runs 10 [--trace]

Each run measures ``run_seconds`` of ``BENCHMARK.json``.  Run ``i`` of
every workload uses seed ``i + 1``; the workloads take
turns (w1 w2 w3 w1 w2 w3 ...), never back to back, because on a small
shared host back-to-back runs drift in one direction.  For every
end-to-end metric it prints the median, quartiles, minimum, maximum
and the quartile spread as a share of the median.  One more run per
workload uses a held-out seed that no tuning saw, reported on its own.

Before each run a fixed pure-Python loop is timed as a host-speed
probe.  It is printed for information only and never used to scale a
metric: dividing by such a probe made the spread worse when tried.

``--trace`` also runs each workload's traced run once and prints its
per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS  # noqa: E402

HELD_OUT_SEED = 7919


def host_probe() -> float:
    """Seconds for a fixed interpreter-bound loop (information only)."""
    started = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i & 0xFF
    return time.perf_counter() - started


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, run_s=elapsed,
                  table=lines[:-1], stderr=proc.stderr)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    runs, held_out, traced = [], [], []
    for i in range(args.runs):
        for workload in WORKLOADS:
            probe = host_probe()
            result = one_run(workload, i + 1, seconds, 0)
            result["host_probe_s"] = probe
            runs.append(result)
            print(f"{workload:<13} seed {i + 1:>3}  probe {probe:.3f}s  "
                  f"{result['attempted']} requests, {result['failed']} failed, "
                  f"run {result['run_s']:.1f}s", flush=True)
    for workload in WORKLOADS:
        held_out.append(one_run(workload, HELD_OUT_SEED, seconds, 0))
        if args.trace:
            traced.append(one_run(workload, 1, seconds, 1))
    ok = all(r["correct"] for r in runs + held_out + traced)
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        print(f"\n{workload}: {len(mine)} runs, "
              f"{sum(r['attempted'] for r in mine)} requests, "
              f"{sum(r['failed'] for r in mine)} failed")
        print(f"  {'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'min':>10} {'max':>10} {'iqr/med':>8}  held-out")
        held = next(r for r in held_out if r["workload"] == workload)
        for name, entry in mine[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in mine]
            q1, q2, q3, rel = (spread(values) if len(values) > 1
                               else (values[0],) * 3 + (0.0,))
            print(f"  {name:<18} {q2:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{min(values):>10.4f} {max(values):>10.4f} {rel:>8.1%}  "
                  f"{held['metrics'][name]['value']:.4f} {entry['unit']}")
        probes = [r["host_probe_s"] for r in mine]
        print(f"  host probe (information only): median "
              f"{statistics.median(probes):.3f}s, min {min(probes):.3f}s, "
              f"max {max(probes):.3f}s")
    for result in traced:
        print()
        print("\n".join(result["table"]))
    print("\nall outputs correct" if ok else "\nSOME OUTPUTS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
