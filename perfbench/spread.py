#!/usr/bin/env python3
"""Run the benchmark over seeds 1-10 and report each end-to-end metric's
median, unit and quartile spread (IQR / median), the figure a
benchmark's bounds are checked against.

    python3 perfbench/spread.py --workload all

Run from the root of a checkout.  --workload takes one workload, a
comma-separated list, or "all" (every workload in BENCHMARK.json, one
after another).  Each run measures BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def report(spec, workload):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values, units = {}, {}
    for seed in SEEDS:
        out = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                     f"{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload} seed {seed}: {result['failed']} of "
                  f"{result['attempted']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{workload}: {len(SEEDS)} seeds, {seconds} s")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "ok" if spread <= bound else "WIDE"
        print(f"  {name:24s} median {med:12.6g} {units[name]:6s} spread {spread:7.4f}"
              f"  bound {bound}  {flag}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else args.workload.split(","))
    for workload in workloads:
        report(spec, workload)


if __name__ == "__main__":
    main()
