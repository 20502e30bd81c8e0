"""Self-tests of the end-to-end benchmark harness (collected by tier-1).

They check the contract file's shape, the arithmetic the report rests on
(span self times, the tail-percentile rule, compare.py's verdicts) and — by
running ``run.py --smoke`` — that every declared metric is emitted, that a
doctored loss fails the run, and that the benchmark refuses to run where
the program is absent.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
from spans import TAIL_BEYOND, Tracer, percentile, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


def test_contract_file_is_within_the_schema():
    c = contract()
    assert set(c) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert c["paths"] == ["benchmarks/e2e"]
    assert c["command"][0] == "python3" and c["command"][1].startswith(c["paths"][0] + "/")
    assert isinstance(c["run_seconds"], int) and 1 <= c["run_seconds"] <= 60
    assert 2 <= len(c["workloads"]) <= 8
    assert 1 <= len(c["end_to_end"]) <= 16
    assert 1 <= len(c["per_layer"]) <= 128
    for w in c["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in c["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in c["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for x in c["workloads"] + c["end_to_end"] + c["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in c["end_to_end"] + c["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in c["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in c["end_to_end"])
    # the budget the driver gives 4 + 22 x workloads runs
    runs = 4 + 22 * len(c["workloads"])
    assert runs * (c["run_seconds"] + 10) <= 3420


def test_span_self_time_is_duration_minus_children():
    tracer = Tracer(True)
    with tracer.span("root") as root:
        with tracer.span("a") as a:
            with tracer.span("a1", step=7) as a1:
                pass
        with tracer.span("b") as b:
            pass
    for span, (start, end) in ((root, (0, 10)), (a, (1, 6)), (a1, (2, 4)), (b, (7, 9))):
        span.start, span.end = float(start), float(end)
    assert tracer.self_times() == {root.id: 3.0, a.id: 3.0, a1.id: 2.0, b.id: 2.0}
    assert sum(tracer.self_times().values()) == root.duration
    assert (a1.parent, a1.step, root.parent) == (a.id, 7, None)
    assert [s.name for s in tracer.children(root)] == ["a", "b"]

    off = Tracer(False)
    with off.span("nothing"):
        pass
    assert off.spans == []


def test_tail_percentile_needs_ten_samples_beyond_it():
    def tail(n):
        return tail_percentile([float(i) for i in range(1, n + 1)])

    assert tail(1000) == (99, 990.0)
    assert tail(999)[0] == 95
    assert tail(100) == (90, 90.0)      # exactly ten samples beyond p90
    assert tail(99)[0] == 75            # 9.9 beyond p90 is not enough
    assert tail(40) == (75, 30.0)
    assert tail(39)[0] == 50
    assert tail(5) == (50, 3.0)         # too few for any tail: the median
    for n in (20, 40, 100, 200, 1000):
        p, _ = tail(n)
        assert n * (100 - p) / 100 >= TAIL_BEYOND
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def test_compare_verdicts():
    base = {s: 100.0 + s for s in range(10)}            # spread ~0.05
    same = {s: v * 1.01 for s, v in base.items()}
    worse = {s: v * 0.8 for s, v in base.items()}
    better = {s: v * 1.2 for s, v in base.items()}
    noisy = {s: 100.0 + 10 * s for s in range(10)}
    assert compare.verdict(base, same, "higher", 0.1)[0] == "unchanged"
    assert compare.verdict(base, worse, "higher", 0.1)[0] == "regressed"
    assert compare.verdict(base, worse, "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, better, "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, better, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(noisy, noisy, "higher", 0.1)[0] == "unresolved"
    assert compare.verdict(base, worse, "higher", None)[0] == "-"
    word, change = compare.verdict(base, worse, "higher", 0.1)
    assert change == pytest.approx(-0.2)


def test_smoke_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "result.json"
    proc = run_benchmark("--workload", "xfmr_fine", "--seed", "5", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    c = contract()
    declared = {m["name"]: m["unit"] for m in c["end_to_end"] + c["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    for name in declared:  # printed by name with its unit, not only in the JSON
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(declared[name])}$",
                         proc.stdout, re.M), name
    for check in ("leaked_children 0", "leaked_shm 0", "leaked_tmp 0"):
        assert check in proc.stdout
    full = json.loads(out.read_text())
    assert full["workload"] == "xfmr_fine" and full["host"]["usable_cores"] >= 1
    with open(os.path.join(HERE, "out", "trace_xfmr_fine.json"), encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    names = {e["name"] for e in events}
    assert {"workload", "round", "visit.thread", "step", "runtime.train_step",
            "runtime.sync", "train.run", "checkpoint.save"} <= names


def test_doctored_loss_fails_the_run():
    proc = run_benchmark("--workload", "xfmr_fine", "--seed", "5", "--smoke",
                         "--inject-fault", "thread")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "loss_mismatches.thread 1" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "mlp_wide"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode not in (0, 1)
    assert proc.stdout.strip() == ""
