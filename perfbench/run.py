#!/usr/bin/env python3
"""Builds and runs the IDS end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload ncnpr-scale --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the engine sources under src/) in Release mode into
.bench_build/perfbench, runs one workload, and passes through the binary's
report. The last line of standard output is the JSON result. Build output
goes to standard error. Exits non-zero, printing no result, when the engine
sources are missing or the build or the run fails.

    python3 perfbench/run.py --self-test

checks that corrupted answers are counted as failed, on every workload.
    python3 perfbench/run.py --record [--workload W] --seconds 330
re-records perfbench/reference/ at the default seed (only when a change
deliberately alters answers or modeled clocks).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "ids_perfbench")
WORKLOADS = ["ncnpr-scale", "ncnpr-cache", "explore"]
DEFAULT_SEED = 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 2)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target", "ids_perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the engine and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run(workload, seed, seconds, trace, extra=(), capture=False):
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT, "--reference-dir", os.path.join(HERE, "reference"),
           "--commit", commit(), "--source-digest", source_digest(), *extra]
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def self_test():
    """Every workload, at the default seed and at another one, must count a
    corrupted answer as failed and pass when nothing is corrupted. Corrupting
    every answer gives the same wrong answer every time, which only the
    references and the oracles can catch; every second answer also breaks
    determinism and the repeats."""
    ok = True
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, 7):
            for corrupt in (0, 1, 2):
                r = run(workload, seed, 1, 0, ["--corrupt-every", str(corrupt)], capture=True)
                lines = r.stdout.strip().splitlines()
                res = json.loads(lines[-1]) if r.returncode == 0 and lines else None
                good = res is not None and (
                    res["correct"] and res["failed"] == 0 if corrupt == 0
                    else not res["correct"] and res["failed"] > 0)
                ok &= good
                print("%-12s seed %d corrupt-every %d: %s %s" % (
                    workload, seed, corrupt, "ok" if good else "WRONG",
                    "" if res is None else "failed %d of %d" % (res["failed"], res["attempted"])))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        return self_test()
    if a.record:
        for w in [a.workload] if a.workload else WORKLOADS:
            path = os.path.join(HERE, "reference", w + ".ref")
            r = run(w, DEFAULT_SEED, a.seconds, 0, ["--record", path])
            if r.returncode != 0:
                return r.returncode
        return 0
    if a.workload is None:
        p.error("--workload is required")
    sys.stdout.flush()
    return run(a.workload, a.seed, a.seconds, a.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
