"""The measurement protocol: set-up, interleaved rounds, correctness gate,
failure accounting, hygiene and the host record.

Closed loop with one client (the driver thread): the next ``train_step`` is
issued when the previous one returns.  All four backends are built once and
stay alive (an idle pool costs ~0 CPU); each *round* visits every backend
once, rotating which one goes first, and a backend's throughput is the
median over its visits.  Interleaving is what makes the numbers repeat on a
shared host: drift in the host's speed lands on every backend alike instead
of on whichever one happened to run during the slow minute.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import platform
import shutil
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from spans import Tracer
from specs import BACKENDS, Built, Instance, Workload

ROUNDS = 7
TRACE_ROUNDS = 6           # a --trace 1 run alternates untraced / traced rounds
SETUP_REPEATS = (3, 7)     # at least, at most; stop once they took SETUP_BUDGET_S
SETUP_BUDGET_S = 3.0
MIN_STEPS_PER_VISIT = 5    # x 7 rounds keeps every backend above 30 timed steps
VISIT_WATCHDOG_S = 60.0
RUN_WATCHDOG_S = 170.0     # the contract allows a run 180 s
NOISY_PRESSURE = 30.0      # /proc/pressure/cpu "some avg10" (%) before the run

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_UNTRACED = Tracer(False)


# -- /proc helpers ---------------------------------------------------------------


def _stat_fields(pid: int) -> list[bytes] | None:
    """Fields of /proc/<pid>/stat after the command name: [0] state,
    [1] ppid, [11] utime, [12] stime."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return None
    return stat[stat.rfind(b")") + 2:].split()


def _is_resource_tracker(pid: int) -> bool:
    """multiprocessing's shared-memory resource tracker: a helper the
    interpreter starts with the first segment and stops at exit."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"resource_tracker" in fh.read()
    except OSError:
        return False


def child_pids() -> set[int]:
    """Live direct children of this process, the resource tracker excluded."""
    me = os.getpid()
    out = set()
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields and int(fields[1]) == me and not _is_resource_tracker(int(name)):
                out.add(int(name))
    return out


def kill_children() -> int:
    """SIGKILL and reap every live child; returns how many there were."""
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
    return len(pids)


def cpu_seconds(pids) -> float:
    total = 0.0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def pss_mib(pids) -> float:
    """Sum of the proportional set sizes of the given processes: a page
    shared by k processes (a forked worker starts with all of its parent's)
    counts 1/k in each, so the sum is the physical memory they hold."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass  # the worker exited between listing and reading
    return total_kb / 1024.0


def cpu_pressure() -> float | None:
    """``some avg10`` of /proc/pressure/cpu in percent (None if the kernel
    does not expose it)."""
    try:
        with open("/proc/pressure/cpu", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("some"):
                    return float(line.split()[1].split("=")[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def host_record(blas_pins) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_pins": {k: os.environ.get(k) for k in blas_pins},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


# -- watchdog --------------------------------------------------------------------


class WatchdogTimeout(Exception):
    """A guarded region overran its wall-clock limit."""


@contextmanager
def watchdog(seconds: float, what: str):
    """Raise :class:`WatchdogTimeout` in the driver thread if the body runs
    longer than ``seconds``.  Nests: an inner guard suspends the outer
    timer and re-arms it, less the time spent, on the way out."""

    def fire(signum, frame):
        raise WatchdogTimeout(f"{what} exceeded its {seconds:g} s watchdog")

    started = time.monotonic()
    old_handler = signal.signal(signal.SIGALRM, fire)
    outer_left, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if outer_left > 0:
            spent = time.monotonic() - started
            signal.setitimer(signal.ITIMER_REAL, max(outer_left - spent, 0.001))


# -- per-backend state -----------------------------------------------------------


@dataclass
class Visit:
    traced: bool
    steps: int
    wall: float
    cpu: float
    sync: float   # seconds inside sync() calls, the trainer's included


@dataclass
class BackendRun:
    name: str
    built: Built
    pids: set
    build_s: float
    losses: list = field(default_factory=list)   # every loss, in order: the gate
    evals: list = field(default_factory=list)    # (steps trained, eval metric)
    step_s: list = field(default_factory=list)   # train_step call durations
    sync_s: list = field(default_factory=list)
    visits: list = field(default_factory=list)
    cursor: int = 0
    attempted: int = 0
    failed: int = 0
    broken: str | None = None
    close_s: float = 0.0

    def fail(self, exc: BaseException) -> None:
        """Count a failed operation and stop visiting this backend: after a
        typed transport / worker-lost / deadlock error the pool is wedged
        and every further call would fail the same way."""
        self.failed += 1
        self.broken = f"{type(exc).__name__}: {exc}"
        print(f"FAILED {self.name}: {self.broken}", file=sys.stderr)

    def mbps(self, microbatches: int, traced: bool | None = None) -> list[float]:
        return [
            v.steps * microbatches / v.wall
            for v in self.visits
            if traced is None or v.traced == traced
        ]


@dataclass
class Session:
    workload: Workload
    inst: Instance
    runs: dict
    tracer: Tracer
    tmp_root: str
    min_steps: int
    setup_s: float = 0.0
    pss_mib: list = field(default_factory=list)

    @property
    def lifecycle(self) -> bool:
        return self.workload.kind == "lifecycle"

    def worker_pids(self) -> set:
        return set().union(*(r.pids for r in self.runs.values()))

    def tally(self) -> tuple[int, int]:
        """(operations attempted, operations failed) over all backends."""
        runs = self.runs.values()
        return sum(r.attempted for r in runs), sum(r.failed for r in runs)


# -- set-up ----------------------------------------------------------------------


def _first_step(run: BackendRun, inst: Instance) -> None:
    ex = run.built.executor
    try:
        run.attempted += 1
        run.losses.append(ex.train_step(*inst.batches[0]))
        run.cursor += 1
        if hasattr(ex, "sync"):
            run.attempted += 1
            ex.sync()
    except Exception as exc:
        run.fail(exc)


def set_up(
    workload: Workload, seed: int, tracer: Tracer, tmp_root: str, min_steps: int
) -> Session:
    """Everything a user waits for before the first minibatch is trained on
    every backend: input generation, model build, partition plan, wave
    compile, worker spawn and handshake, and the first train step (which
    pays ring growth, arena fill and lazy imports) with its sync."""
    started = time.perf_counter()
    inst = workload.instantiate(seed)
    runs: dict[str, BackendRun] = {}
    session = Session(workload, inst, runs, tracer, tmp_root, min_steps)
    try:
        for name in BACKENDS:
            with tracer.span(f"setup.{name}"):
                before = child_pids()
                t0 = time.perf_counter()
                with tracer.span("build"):
                    built = inst.build(name, os.path.join(tmp_root, name))
                run = BackendRun(name, built, set(), time.perf_counter() - t0)
                runs[name] = run
                run.pids = child_pids() - before
                with tracer.span("first_step"):
                    _first_step(run, inst)
    except BaseException:
        tear_down(session)
        raise
    session.setup_s = time.perf_counter() - started
    return session


# -- visits ----------------------------------------------------------------------


def _visit_steps(run: BackendRun, session: Session, seconds: float, tracer: Tracer) -> int:
    ex = run.built.executor
    batches = session.inst.batches
    steps = 0
    deadline = time.perf_counter() + seconds
    while True:
        with tracer.span("step", step=run.cursor):
            with tracer.span("data.next_batch"):
                x, y = batches[run.cursor % len(batches)]
            run.attempted += 1
            with tracer.span("runtime.train_step"):
                t0 = time.perf_counter()
                loss = ex.train_step(x, y)
                t1 = time.perf_counter()
        run.losses.append(loss)
        run.step_s.append(t1 - t0)
        run.cursor += 1
        steps += 1
        if t1 >= deadline and steps >= session.min_steps:
            break
    if hasattr(ex, "sync"):
        run.attempted += 1
        with tracer.span("runtime.sync"):
            t0 = time.perf_counter()
            ex.sync()
            run.sync_s.append(time.perf_counter() - t0)
    return steps


@contextmanager
def traced_trainer(run: BackendRun, tracer: Tracer):
    """Wrap the calls ``PipelineTrainer.run`` makes into the other layers in
    spans, by shadowing them on the instances the benchmark owns; the
    originals are restored on exit."""
    ex, trainer = run.built.executor, run.built.trainer
    if not tracer.enabled:
        yield
        return
    step = ex.train_step
    batch_fn, eval_fn = trainer.batch_fn, trainer.eval_fn
    save = trainer.manager.save

    numbers = itertools.count(run.cursor)

    def train_step(x, y):
        with tracer.span("runtime.train_step", step=next(numbers)):
            t0 = time.perf_counter()
            loss = step(x, y)
            run.step_s.append(time.perf_counter() - t0)
        return loss

    def batches(rng):
        it = iter(batch_fn(rng))
        while True:
            with tracer.span("data.next_batch"):
                item = next(it, None)
            if item is None:
                return
            yield item

    def evaluate():
        with tracer.span("train.eval"):
            return eval_fn()

    def save_snapshot(*args, **kwargs):
        with tracer.span("checkpoint.save"):
            return save(*args, **kwargs)

    ex.train_step = train_step
    trainer.batch_fn, trainer.eval_fn = batches, evaluate
    trainer.manager.save = save_snapshot
    sync = getattr(ex, "sync", None)
    if sync is not None:
        def traced_sync():
            with tracer.span("runtime.sync"):
                t0 = time.perf_counter()
                sync()
                run.sync_s.append(time.perf_counter() - t0)

        ex.sync = traced_sync
    try:
        yield
    finally:
        del ex.train_step, trainer.manager.save
        if sync is not None:
            del ex.sync
        trainer.batch_fn, trainer.eval_fn = batch_fn, eval_fn


def _visit_lifecycle(run: BackendRun, session: Session, seconds: float, tracer: Tracer) -> int:
    """One ``PipelineTrainer.run``: fixed work, not fixed time, so the step
    count (and with it steps-to-target) is exact and equal across backends."""
    epochs = session.workload.epochs_per_visit
    per_epoch = session.inst.wl.steps_per_epoch
    run.attempted += epochs * per_epoch
    with traced_trainer(run, tracer), tracer.span("train.run"):
        result = run.built.trainer.run(epochs=epochs)
    if result.diverged:
        raise FloatingPointError("training diverged")
    for loss, metric in zip(
        result.history.series("train_loss"), result.history.series("eval_metric")
    ):
        run.cursor += per_epoch
        run.losses += [loss, metric]
        run.evals.append((run.cursor, metric))
    return epochs * per_epoch


def visit(run: BackendRun, session: Session, round_no: int, seconds: float, traced: bool) -> None:
    body = _visit_lifecycle if session.lifecycle else _visit_steps
    inner = session.tracer if traced else _UNTRACED
    cpu0 = time.process_time() + cpu_seconds(run.pids)
    syncs = len(run.sync_s)
    with session.tracer.span(f"visit.{run.name}", step=round_no):
        t0 = time.perf_counter()
        try:
            with watchdog(VISIT_WATCHDOG_S, f"visit.{run.name}"):
                steps = body(run, session, seconds, inner)
        except Exception as exc:
            run.fail(exc)
            return
        wall = time.perf_counter() - t0
    cpu = time.process_time() + cpu_seconds(run.pids) - cpu0
    run.visits.append(Visit(traced, steps, wall, cpu, sum(run.sync_s[syncs:])))


def run_rounds(session: Session, numbers: range, seconds: float, traced: set) -> None:
    """The interleaved rounds ``numbers`` inside a budget of ``seconds`` of
    timed visits.  A visit overruns its share by the step in flight at its
    deadline plus the sync, so each visit is given an equal share of the
    budget that is *left*: the measured time stays ``seconds``, and a slow
    backend shortens every backend's later visits alike.  Memory is sampled
    between rounds, outside every visit."""
    left = len(numbers) * len(BACKENDS)
    nominal = seconds / left
    budget_end = time.perf_counter() + seconds
    for r in numbers:
        order = BACKENDS[r % len(BACKENDS):] + BACKENDS[: r % len(BACKENDS)]
        with session.tracer.span("round", step=r):
            for name in order:
                run = session.runs[name]
                share = max((budget_end - time.perf_counter()) / left, nominal / 2)
                left -= 1
                if run.broken is None:
                    visit(run, session, r, share, r in traced)
        session.pss_mib.append(pss_mib({os.getpid()} | session.worker_pids()))


def warm_up(session: Session, seconds: float) -> None:
    """One discarded round: the same visits as a measured round (so rings,
    arenas and caches reach their steady state — five steps do not get a
    process pool there), whose timings are thrown away.  Its losses stay in
    the correctness gate."""
    run_rounds(session, range(-1, 0), seconds, set())
    for run in session.runs.values():
        run.visits.clear()
        run.step_s.clear()


# -- correctness, tear-down, hygiene ------------------------------------------------


def gate(session: Session) -> dict:
    """Every concurrent backend's loss sequence must equal the simulator's
    bit for bit on the common prefix, and every loss must be finite.
    Returns mismatching positions per backend; they count as failed steps."""
    reference = session.runs["simulator"].losses
    out = {}
    for name, run in session.runs.items():
        bad = sum(1 for v in run.losses if not math.isfinite(v))
        if name != "simulator":
            bad += sum(1 for a, b in zip(reference, run.losses) if a != b)
        run.failed += bad
        out[name] = bad
    return out


def tear_down(session: Session) -> None:
    for run in session.runs.values():
        close = getattr(run.built.executor, "close", None)
        if close is None:
            continue
        t0 = time.perf_counter()
        try:
            close()
        except Exception as exc:
            run.fail(exc)
        run.close_s = time.perf_counter() - t0


def hygiene(session: Session, shm_before: set) -> dict:
    """After ``close()``: no child process alive, no new /dev/shm segment,
    the temp autosave tree removed.  Leaked children are killed and reaped
    so the run itself leaves nothing behind either way."""
    multiprocessing.active_children()  # reaps workers that already exited
    leaked = kill_children()
    shutil.rmtree(session.tmp_root, ignore_errors=True)
    return {
        "leaked_children": leaked,
        "leaked_shm": len(set(os.listdir("/dev/shm")) - shm_before),
        "leaked_tmp": int(os.path.exists(session.tmp_root)),
    }


def stop_resource_tracker() -> None:
    """multiprocessing keeps its shared-memory resource tracker alive until
    interpreter exit; stop it now so the run ends with no process of its own
    still running."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except Exception:
            pass
