#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and print every metric with its spread.

    python3 perfbench/report.py                         # all workloads, default seed
    python3 perfbench/report.py --seeds 1-10            # ten seeds: quartile spread per metric
    python3 perfbench/report.py --workloads snapshot --trace 1

Each (workload, seed) is one ``run.py`` process, run one after another. For each
metric the report gives the median over seeds and the distance between the first
and third quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. It also prints failed_frac, the failed share of replicates.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="6", help="comma list or ranges, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= all(r["correct"] for r in runs)
        print(f"{workload}: seeds {args.seeds}, failed_frac {failed / attempted:.4f} ({failed} of {attempted} replicates)")
        rows = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {"unit": first["unit"], "values": values, "median": statistics.median(values),
                          "spread": spread(values)}
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or rows[name]["spread"] < bound / 3 else "  > bound/3"
            limit = f"  bound {bound:g}" if bound is not None else ""
            print(f"  {name:<34} {rows[name]['median']:14.6g} {first['unit']:<6} spread {rows[name]['spread']:.4f}"
                  f"{limit}{flag}")
        report[workload] = {"seeds": seeds, "failed": failed, "attempted": attempted, "metrics": rows}
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
