#!/usr/bin/env python3
"""Where a pipeline worker's CPU goes, measured from outside.

    python3 benchmarks/worker_cpu_ledger.py --workload xfmr_fine --backend process

Builds one backend of one ``benchmarks/e2e`` workload (imported read-only
from ``e2e/specs.py``), trains ``--warmup`` + ``--steps`` minibatches and
prints, per named line, the CPU (``time.thread_time``) and wall milliseconds
per step summed over the workers, plus the driver's wall per step.  The
lines are *self* times — a call's time minus the wrapped calls it made, so
``reserve`` (called from inside a segment's forward) is not counted twice —
and "everything else" is what ``Worker.step`` spent outside all of them, so
the column sums to the ``Worker.step`` total.  Wall minus CPU on the receive
line is time spent parked on an empty channel.

Nothing under ``src/`` is instrumented: the classes are wrapped here by
monkeypatch before the pool starts its workers, forked workers inherit the
wrappers, and each worker writes its ledger to a temp file when its serve
loop returns.  (That needs the default ``fork`` start method; a spawned
worker would import the unwrapped classes.)  This is the script behind the
"Where a process worker's CPU goes" tables in ``docs/ARCHITECTURE.md``; it
is not part of the benchmark contract and moves no ``BENCHMARK.json`` metric.
"""

from __future__ import annotations

import argparse
import functools
import glob
import json
import os
import shutil
import sys
import tempfile
import threading
import time

# One BLAS thread per kernel, set before numpy loads (as benchmarks/e2e/run.py).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, os.path.join(HERE, "e2e"))

from specs import CONCURRENT, WORKLOADS  # noqa: E402

from repro.pipeline import net, stage_compute, transport, worker  # noqa: E402

STEP = "Worker.step total"
OTHER = "everything else inside Worker.step"


class Ledger:
    """One worker's self-time accumulators.  A worker is one thread (of the
    driver, or of its own process), so the ledger lives in a thread-local."""

    def __init__(self):
        self.cpu: dict[str, float] = {}
        self.wall: dict[str, float] = {}
        self.stack: list[list[float]] = []  # [child cpu, child wall] per open call
        self.steps = 0

    def reset(self) -> None:
        self.cpu.clear()
        self.wall.clear()


_local = threading.local()


def ledger() -> Ledger:
    if not hasattr(_local, "ledger"):
        _local.ledger = Ledger()
    return _local.ledger


def timed(line: str, fn):
    """``fn`` charging its self time (CPU and wall) to ``line``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        led = ledger()
        led.stack.append([0.0, 0.0])
        cpu0, wall0 = time.thread_time(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu, wall = time.thread_time() - cpu0, time.perf_counter() - wall0
            child_cpu, child_wall = led.stack.pop()
            led.cpu[line] = led.cpu.get(line, 0.0) + cpu - child_cpu
            led.wall[line] = led.wall.get(line, 0.0) + wall - child_wall
            if led.stack:
                led.stack[-1][0] += cpu
                led.stack[-1][1] += wall

    return wrapper


def wrap(cls, name: str, line: str) -> None:
    setattr(cls, name, timed(line, getattr(cls, name)))


def install(out_dir: str, warmup: int) -> None:
    """Wrap the named calls; every worker dumps its ledger at serve exit."""
    kernels = "kernels (Segment.forward / .backward)"
    wrap(stage_compute.Segment, "forward", kernels)
    wrap(stage_compute.Segment, "backward", kernels)
    wrap(stage_compute.WorkerCompute, "load_weights",
         "weight loads (WorkerCompute.load_weights)")
    snapshots = "cache snapshots (cache_state / load_cache_state)"
    wrap(stage_compute.WorkerCompute, "cache_state", snapshots)
    wrap(stage_compute.WorkerCompute, "load_cache_state", snapshots)
    wrap(transport.Channels, "recv", "channel receive (Channels.recv)")
    sends = "channel send (send + reserve)"
    for cls in (transport.QueueChannels, transport.RingChannels, net._SocketChannels):
        wrap(cls, "send", sends)
        if "reserve" in vars(cls):
            wrap(cls, "reserve", sends)

    step = timed(OTHER, worker.Worker.step)

    @functools.wraps(step)
    def counted_step(self, *args, **kwargs):
        led = ledger()
        if led.steps == warmup:
            led.reset()  # steady state only
        led.steps += 1
        return step(self, *args, **kwargs)

    worker.Worker.step = counted_step
    serve = worker.Worker.serve

    @functools.wraps(serve)
    def dumping_serve(self, *args, **kwargs):
        try:
            return serve(self, *args, **kwargs)
        finally:
            led = ledger()
            path = os.path.join(out_dir, f"w{self.w}-{os.getpid()}-{threading.get_ident()}.json")
            with open(path, "w") as f:
                json.dump({"w": self.w, "steps": led.steps - warmup,
                           "cpu": led.cpu, "wall": led.wall}, f)

    worker.Worker.serve = dumping_serve


def run(workload: str, backend: str, steps: int, warmup: int, seed: int) -> dict:
    tmp = tempfile.mkdtemp(prefix="ledger-")
    try:
        install(tmp, warmup)
        inst = WORKLOADS[workload].instantiate(seed)
        ex = inst.build(backend, os.path.join(tmp, "autosave")).executor
        try:
            wall = 0.0
            for i in range(warmup + steps):
                x, y = inst.batches[i % len(inst.batches)]
                t0 = time.perf_counter()
                ex.train_step(x, y)
                if i >= warmup:
                    wall += time.perf_counter() - t0
            ex.sync()
        finally:
            ex.close()  # workers leave their serve loops and write their ledgers
        reports = []
        for path in sorted(glob.glob(os.path.join(tmp, "w*.json"))):
            with open(path) as f:
                reports.append(json.load(f))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not reports or any(r["steps"] != steps for r in reports):
        raise SystemExit(
            f"expected every worker to report {steps} measured steps, got "
            f"{[(r['w'], r['steps']) for r in reports]}"
        )
    return {"workers": len(reports), "steps": steps, "reports": reports,
            "wall_ms_per_step": wall / steps * 1e3}


def show(result: dict, workload: str, backend: str) -> None:
    steps, reports = result["steps"], result["reports"]
    lines = sorted(
        {line for r in reports for line in r["cpu"]},
        key=lambda line: (line == OTHER, line),
    )

    def per_step(kind: str, line: str) -> float:
        return sum(r[kind].get(line, 0.0) for r in reports) / steps * 1e3

    print(f"{workload} / {backend}: {result['workers']} workers, {steps} steps, "
          f"ms per step summed over workers")
    print(f"  {'line':<52}{'cpu':>9}{'wall':>9}")
    for line in lines:
        print(f"  {line:<52}{per_step('cpu', line):>9.2f}{per_step('wall', line):>9.2f}")
    print(f"  {STEP:<52}{sum(per_step('cpu', l) for l in lines):>9.2f}"
          f"{sum(per_step('wall', l) for l in lines):>9.2f}")
    print(f"  {'wall per step (driver)':<52}{'':>9}{result['wall_ms_per_step']:>9.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    step_workloads = sorted(n for n, w in WORKLOADS.items() if w.kind == "steps")
    parser.add_argument("--workload", choices=step_workloads, required=True)
    parser.add_argument("--backend", choices=sorted(CONCURRENT), default="process")
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = run(args.workload, args.backend, args.steps, args.warmup, args.seed)
    show(result, args.workload, args.backend)


if __name__ == "__main__":
    main()
