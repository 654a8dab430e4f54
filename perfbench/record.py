"""Run the benchmark over several seeds and summarise it per workload.

    python3 perfbench/record.py --out perfbench/SEED_RECORD.json

For each workload: untraced runs on seeds 1..10, then one traced run on
seed 1, each as long as BENCHMARK.json's run_seconds.  Each end-to-end
metric gets its median, quartiles and spread (quartile distance over
median, as ``statistics.quantiles(values, n=4)`` gives them); the traced
run gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["summary"] = lines[:-1]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seconds = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "machine": platform.machine(), "seconds": seconds, "workloads": {}}
    for wl in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(bench(wl, seed, seconds, 0))
            print(wl, seed, runs[-1]["summary"][1], file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(values),
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
        traced = bench(wl, 1, seconds, 1)
        record["workloads"][wl] = {
            "seeds": list(SEEDS),
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "error_rate": [r["failed"] / r["attempted"] for r in runs],
            "end_to_end": metrics,
            "traced_seed_1": {"attempted": traced["attempted"], "failed": traced["failed"],
                              "correct": traced["correct"],
                              "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        for name, m in metrics.items():
            print(f"{wl:<7} {name:<16} median {m['median']:.6g} {m['unit']:<4} "
                  f"spread {m['spread']:.4f}", flush=True)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
