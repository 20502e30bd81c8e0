#!/usr/bin/env python3
"""Run one *set* of benchmark runs — every workload, several seeds — one
after another from this one driver process, and keep each run's full
result for ``compare.py``.

    python3 benchmarks/e2e/runset.py OUTDIR [OUTDIR...] [--seeds 10] [--first-seed 1]
            [--workload NAME]... [--trace {0,1,both}] [--seconds 21]

Writes ``OUTDIR/<workload>.trace<t>.seed<k>.json``.  Runs are sequential on
purpose: two runs at once would share the cores they are timing.  With
several OUTDIRs the sets are taken *interleaved* — one seed of every
workload into each in turn, each set on its own seeds — so that a host that
speeds up or slows down over the half hour a set takes does so under all of
them alike; that is how to check repeatability on a shared host.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdirs", nargs="+", metavar="OUTDIR")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    args = parser.parse_args(argv)

    traces = ("0", "1") if args.trace == "both" else (args.trace,)
    bad = 0
    for k, (j, outdir) in itertools.product(range(args.seeds), enumerate(args.outdirs)):
        os.makedirs(outdir, exist_ok=True)
        seed = args.first_seed + j * args.seeds + k
        for workload in args.workload or names:
            for trace in traces:
                out = os.path.join(outdir, f"{workload}.trace{trace}.seed{seed}.json")
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed), "--trace", trace,
                     "--seconds", str(args.seconds), "--out", out],
                    stdout=subprocess.DEVNULL,
                )
                bad += proc.returncode != 0
                print(f"{workload} trace {trace} seed {seed}: exit {proc.returncode} "
                      f"in {time.perf_counter() - t0:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
