#!/usr/bin/env python3
"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py                        # 10 seeds per workload, then one traced run each
    python3 perfbench/report.py --seeds 5 --workloads phone-fedavg --no-trace

Runs perfbench/run.py once per seed, one process per run from the root
of the checkout, and prints Markdown: the input make-up of
each workload's first run, a table of each end-to-end metric's median and
spread (the distance between the first and third quartile as a share of
the median) per workload, and the per-layer figures of a traced run with
seed 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOAD_NAMES, load_metrics  # noqa: E402

MAKEUP = ("machine:", "inputs:", "training:", "scoring:", "positions per sentence:")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), lines


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES), choices=WORKLOAD_NAMES)
    p.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    p.add_argument("--seconds", type=int, default=run_seconds)
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--raw", help="also write every run's result to this JSON file")
    args = p.parse_args(argv)
    end_to_end, per_layer = load_metrics()

    runs, traced = {}, {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in range(1, args.seeds + 1):
            result, lines = run_once(workload, seed, args.seconds, 0)
            runs[workload].append({"seed": seed, **result})
            if seed == 1:
                print(f"`{workload}`, seed 1:\n")
                print("\n".join(f"    {line}" for line in lines if line.startswith(MAKEUP)) + "\n", flush=True)
        if not args.no_trace:
            traced[workload], _ = run_once(workload, 1, args.seconds, 1)
        if args.raw:
            with open(args.raw, "w", encoding="utf-8") as fh:
                json.dump({"runs": runs, "traced": traced}, fh, indent=1)

    for workload, results in runs.items():
        print(f"- `{workload}`: {len(results)} seeds, all correct {all(r['correct'] for r in results)}, "
              f"operations attempted {sum(r['attempted'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}")
    print(f"\nMedian over seeds 1-{args.seeds} (spread = interquartile range / median):\n")
    print("| metric | unit | bound | " + " | ".join(runs) + " |")
    print("|---|---|---|" + "---|" * len(runs))
    for m in end_to_end:
        name, unit, bound = m["name"], m["unit"], m["bound"]
        cells = []
        for results in runs.values():
            values = [r["metrics"][name]["value"] for r in results]
            cells.append(f"{statistics.median(values):.4g} ({spread(values):.3f})")
        print(f"| `{name}` | {unit} | {bound} | " + " | ".join(cells) + " |")
    if traced:
        print("\nTraced run, seed 1, per set-up plus one pass:\n")
        print("| metric | unit | " + " | ".join(traced) + " |")
        print("|---|---|" + "---|" * len(traced))
        for m in per_layer:
            name, unit = m["name"], m["unit"]
            cells = [f"{result['metrics'][name]['value']:.4g}" for result in traced.values()]
            print(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
