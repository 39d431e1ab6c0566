#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command from BENCHMARK.json once per seed on each named workload
and reports, for every metric, the median and the quartile spread (third
minus first quartile of the runs, as `statistics.quantiles(values, n=4)`
gives them, over the median). It fails when

* any run fails or reports `correct: false`;
* an end-to-end metric other than `setup_s` spreads wider than a third
  of its bound;
* a count the run marks deterministic differs between any two runs.

Run from the repository root:

    python3 perfbench/steady.py --workloads serve_mixed --seeds 5
    python3 perfbench/steady.py --seeds 10            # every workload
    python3 perfbench/steady.py --seeds 3 --trace 1   # per-layer metrics
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    return context, result


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's value under each metric")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values, exact = {}, {}
        for k in range(args.seeds):
            seed = args.first_seed + k
            context, result = run(bench["command"], workload, seed,
                                  bench["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED {context['failures']}")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name in context["deterministic"]:
                exact.setdefault(name, set()).add(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"samples {context['samples']}", flush=True)
        print(f"\n{workload} ({args.seeds} seeds)")
        print(f"  {'metric':34} {'median':>14} {'spread':>8} {'limit':>8}")
        for name, vals in values.items():
            s = spread(vals)
            limit = bounds.get(name)
            verdict = ""
            if args.trace == 0 and name != "setup_s" and limit is not None:
                if s > limit / 3:
                    verdict = "WIDE"
                    ok = False
            if name in exact and len(exact[name]) > 1:
                verdict = f"NOT EXACT {sorted(exact[name])}"
                ok = False
            shown = f"{limit / 3:.4f}" if limit is not None else "-"
            print(f"  {name:34} {statistics.median(vals):14.6g} {s:8.4f} {shown:>8} {verdict}")
            if args.verbose:
                print("      " + " ".join(f"{v:.5g}" for v in vals))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
