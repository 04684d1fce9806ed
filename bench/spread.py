"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload verify-small --seeds 1-10 [--trace 0]

Runs bench/run.py once per seed, one run at a time, with the run length
BENCHMARK.json sets, and prints per metric the median of the runs and the
distance between first and third quartile as a share of that median, next
to the metric's bound.  Raw final lines go to .bench_out/spread-*.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ROOT / ".bench_out" / f"spread-{args.workload}-trace{args.trace}.jsonl"
    out.parent.mkdir(exist_ok=True)
    results = []
    with out.open("a") as sink:
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-3000:])
                return 1
            line = done.stdout.strip().splitlines()[-1]
            sink.write(json.dumps({"seed": seed, "result": json.loads(line)}) + "\n")
            results.append(json.loads(line))
            print(f"seed {seed}: {line}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"correct in {sum(r['correct'] for r in results)}/{len(results)} runs")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        spread = quartile_spread(values) if len(values) >= 2 and median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}, spread/bound {spread / bound:.2f}"
        print(f"{name}: median {median!r}, quartile spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
