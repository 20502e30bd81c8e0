#!/usr/bin/env python3
"""Compare two benchmark results, or two sets of them.

    python3 benchmarks/e2e/compare.py BASE NEW

``BASE`` and ``NEW`` are each a result file written by ``run.py --out`` or a
directory of them (as ``runset.py`` writes).  For every metric x workload
present on both sides it prints both medians and quartiles, the relative
change with its base, the run-to-run spread (distance between the
quartiles as a share of the median) and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` — a side's spread is wider than the bound, so a change of
  the size the bound guards against could hide in the noise;
* ``regressed``  — NEW's median is worse than BASE's by more than the bound;
* ``improved``   — NEW's median is better by more than the distance between
  BASE's quartiles *and* NEW wins at least nine tenths of the seed-matched
  pairs (ties count for neither side);
* ``unchanged``  — none of the above.

Per-layer metrics carry no bound and get no verdict.  Exit code 1 if any
metric is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

from spans import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_contract() -> dict:
    """``{metric: (better, bound or None)}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in contract[group]:
            out[m["name"]] = (m["better"], m.get("bound"))
    return out


def load_side(path: str) -> dict:
    """``{(workload, metric): {seed: value}}`` from a file or a directory."""
    files = (
        sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
        if os.path.isdir(path)
        else [path]
    )
    out: dict = defaultdict(dict)
    for name in files:
        with open(name, encoding="utf-8") as fh:
            result = json.load(fh)
        if "workload" not in result or "metrics" not in result:
            continue  # not a run.py result (a trace, say)
        for metric, entry in result["metrics"].items():
            out[(result["workload"], metric)][result["seed"]] = entry["value"]
    return out


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple[str, float]:
    """``(verdict, relative change)`` for one metric x workload; ``base`` and
    ``new`` map seed to value."""
    a, b = list(base.values()), list(new.values())
    q1_a, med_a, q3_a = quartiles(a)
    _, med_b, _ = quartiles(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if bound is None:
        return "-", change
    gain = change if better == "higher" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    if -gain > bound:
        return "regressed", change
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum((y > x) if better == "higher" else (y < x) for x, y in pairs)
    losses = sum((y < x) if better == "higher" else (y > x) for x, y in pairs)
    if (
        gain > 0
        and abs(med_b - med_a) > (q3_a - q1_a)
        and pairs
        and wins >= 0.9 * (wins + losses)
    ):
        return "improved", change
    return "unchanged", change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    contract = load_contract()
    base, new = load_side(args.base), load_side(args.new)
    keys = sorted(set(base) & set(new))
    if not keys:
        print("no metric x workload appears on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<17s}{'metric':<38s}{'base q1/med/q3':>30s}"
          f"{'new q1/med/q3':>30s}{'change':>9s}{'spread b/n':>13s}{'bound':>7s}  verdict")
    bad = 0
    for workload, metric in keys:
        better, bound = contract.get(metric, ("lower", None))
        a, b = base[(workload, metric)], new[(workload, metric)]
        word, change = verdict(a, b, better, bound)
        bad += word in ("regressed", "unresolved")
        va, vb = list(a.values()), list(b.values())
        qa = "/".join(f"{v:.4g}" for v in quartiles(va))
        qb = "/".join(f"{v:.4g}" for v in quartiles(vb))
        spreads = f"{spread(va):.3f}/{spread(vb):.3f}"
        print(f"{workload:<17s}{metric:<38s}{qa:>30s}{qb:>30s}{change:>+9.1%}"
              f"{spreads:>13s}{'' if bound is None else format(bound, '.2f'):>7s}  {word}"
              f"  (n={len(a)}/{len(b)}, {better} is better)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
