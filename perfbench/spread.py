"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs run.py --trace 0 once per seed, one after another, and prints for each metric the
median, the quartiles and the interquartile distance as a share of the
median, next to a third of the metric's bound from BENCHMARK.json (the
target for a steady benchmark). Results are appended as JSON lines to
.perfbench_out/spread.jsonl.
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
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--trace", "0"]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
            return 1
        result = json.loads(lines[-1])
        with open(os.path.join(ROOT, ".perfbench_out", "spread.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "result": result}) + "\n")
        print(f"seed {seed} ({took:.0f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    if len(args.seeds) < 2:
        return 0
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for k, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rel = (q3 - q1) / abs(med) if med else float("inf")
        b = bounds.get(k)
        print(f"{k:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
              f"{(b / 3 if b else float('nan')):8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
