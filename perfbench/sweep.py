"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads cli,cs_sweep] [--baseline FILE]

Run it from the root of a checkout.  For every workload it makes one
untraced run per seed, with ``run_seconds`` from BENCHMARK.json, and prints
each end-to-end metric's median, quartiles and spread (interquartile
distance over the median, from ``statistics.quantiles(values, n=4)``).
With ``--baseline`` it also makes one traced run per workload with the
first seed, and writes the medians, the per-layer figures and the machine
facts to FILE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: answers failed their checks")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seeds_from(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"end_to_end": {}, "per_layer": {}}
    for name in names:
        results = [run(name, seed, seconds, 0) for seed in seeds]
        table = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            table[metric] = dict(summary(values), unit=results[0]["metrics"][metric]["unit"], values=values)
            s = table[metric]
            flag = "" if metric == "setup_s" or s["spread"] <= bound / 3 else "  above a third of the bound"
            print(f"{name:16s} {metric:12s} median {s['median']:10.5g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        baseline["end_to_end"][name] = table
        if args.baseline:
            traced = run(name, seeds[0], seconds, 1)
            baseline["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.baseline:
        import numpy

        baseline["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        }
        baseline["run_seconds"] = seconds
        baseline["seeds"] = seeds
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
