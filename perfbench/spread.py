#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: one run per seed, then for each metric the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload explore --runs 10 [--first-seed 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--same-seed", action="store_true",
                   help="repeat --first-seed instead of varying it (host noise)")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    seeds = [a.first_seed] * a.runs if a.same_seed else range(a.first_seed, a.first_seed + a.runs)
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-2000:])
            return 1
        res = json.loads(r.stdout.strip().splitlines()[-1])
        ok &= res["correct"] and res["failed"] == 0
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print("seed %d: correct=%s attempted=%d failed=%d  %s" % (
            seed, res["correct"], res["attempted"], res["failed"],
            " ".join("%.4g" % res["metrics"][n]["value"] for n in bounds)), flush=True)
    print("%-18s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("%-18s %12.6g %7.1f%% %7.1f%%" % (
            name, med, 100 * (q3 - q1) / med, 100 * bounds[name]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
