#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise it as one JSON file.

    python3 perfbench/repeat.py --runs 10 --first-seed 1 --out perfbench/out/summary.json

For each workload this makes ``--runs`` end-to-end runs, one per seed, then
one traced run, and records for every metric its values, median, quartiles
and quartile spread (``(q3 - q1) / median``, quartiles as
``statistics.quantiles(values, n=4)`` gives them).  Runs are sequential: one
workload process at a time.  Compare two commits by running this on each, on
the same machine, with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    doc: dict = {"runs": args.runs, "first_seed": args.first_seed,
                 "seconds": args.seconds, "workloads": {}}
    for workload in W.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for k in range(args.runs):
            line = run_once(workload, args.first_seed + k, args.seconds, 0)
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        entry = {"end_to_end": {name: {"unit": units[name], **summarise(v)}
                                for name, v in values.items()}}
        traced = run_once(workload, args.first_seed, args.seconds, 1)
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        doc["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:12s} {name:20s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}",
                  flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
