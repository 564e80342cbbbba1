"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py [--runs 10] [--trace 0|1] [--out FILE]

For every workload in BENCHMARK.json it runs `bench/run.py` once per
seed (1, 2, ..., `--runs`) for `run_seconds`, one run at a time, and
prints each metric's median, first
and third quartile (`statistics.quantiles(values, n=4)`), and the spread
(q3 - q1) / median next to the bound BENCHMARK.json fixes. With
`--runs 1` it is the one command that prints every metric of every
workload. `--out` writes the same figures as JSON, with the machine.
Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import cpu_model  # noqa: E402


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"]
    summary = {"machine": {"python": sys.version.split()[0],
                           "nproc": len(os.sched_getaffinity(0)),
                           "cpu": cpu_model()},
               "runs": args.runs, "seconds": seconds, "trace": args.trace,
               "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, {attempted} operations, "
              f"{failed} failed")
        entry = summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "metrics": {}}
        for metric in declared:
            stats = summarize(values[metric["name"]])
            stats.update(unit=metric["unit"], bound=metric.get("bound"))
            entry["metrics"][metric["name"]] = stats
            spread = ("-" if stats["spread"] is None
                      else f"{stats['spread']:.4f}")
            bound = "" if stats["bound"] is None else \
                f"  bound {stats['bound']}"
            print(f"  {metric['name']:<28} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"{metric['unit']:<6} spread {spread}{bound}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
