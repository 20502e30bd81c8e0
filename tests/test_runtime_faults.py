"""Fault-injection suite: every failure path the driver claims to handle,
triggered deterministically through the ``_channel_hook`` seam (see
``faultutils``) and asserted end to end — typed errors, no hangs, weights
restored to the latest published version, and (where the contract says so)
bit-exact continuation against the simulator.

The matrix, by backend:

* **delay** must be absorbed bit-exactly everywhere — slow links change
  nothing about the trajectory;
* **drop** starves the peer into its channel timeout: a typed
  ``PipelineDeadlockError``, a *non*-wedged pool (every worker reported),
  and bit-exact continuation;
* **dup** (stale step tag) must be discarded by ring and socket channels;
* **disconnect** (socket) surfaces as ``WorkerLostError``;
* **die** kills the worker mid-step at exact coordinates: thread workers
  raise, process workers wedge the pool (also when SIGKILLed while parked
  on a ring doorbell), socket workers surface ``WorkerLostError`` — and
  with restart budget the socket pool respawns the worker set and retries
  the minibatch bit-exactly.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from faultutils import FaultInjected, FaultRule, FaultSpec
from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.pipeline import (
    AsyncPipelineRuntime,
    PipelineDeadlockError,
    PipelineExecutor,
    RuntimeWedgedError,
    TaskState,
    WorkerLostError,
    WorkerRegistry,
    partition_model,
)
from repro.pipeline import worker as worker_mod
from repro.pipeline.executor import param_groups_from_stages
from repro.pipeline.registry import Backoff

pytestmark = pytest.mark.net

TIMEOUT = 15.0
BACKENDS = ["thread", "process", "socket"]


def toy_data(rng, n=96):
    centers = rng.normal(size=(3, 6)) * 2
    y = rng.integers(0, 3, size=n)
    x = centers[y] + rng.normal(size=(n, 6))
    return x, y


def build(backend, seed=7, **kw):
    model = MLP([6, 8, 8, 8, 3], np.random.default_rng(seed))
    stages = partition_model(model, 4)
    opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
    if backend == "simulator":
        ex = PipelineExecutor(
            model, CrossEntropyLoss(), opt, stages, 2, "pipemare", **kw
        )
    else:
        ex = AsyncPipelineRuntime(
            model, CrossEntropyLoss(), opt, stages, 2, "pipemare",
            backend=backend, **kw
        )
    return model, ex


def install(monkeypatch, rules):
    """Install a fault spec on the channel hook; with the fork start
    method the workers of any pool built afterwards inherit it."""
    spec = FaultSpec(rules)
    monkeypatch.setattr(worker_mod, "_channel_hook", spec.wrap)
    return spec


def assert_weights_restored(rt):
    for s, stage in enumerate(rt.stages):
        for p, stored in zip(
            stage.params, rt.store.weights(s, rt.store.latest_version)
        ):
            assert p.data is stored, (
                f"stage {s}: Parameter.data aliases a historical version "
                f"after an injected fault"
            )


class TestDelay:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delayed_sends_are_bit_exact(self, rng, monkeypatch, backend):
        """A slow link reorders nothing the schedule depends on: delaying
        one activation and one gradient send leaves the whole trajectory
        bit-identical to the simulator's."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="delay", worker=1, kind="act", step=2),
            FaultRule(op="send", action="delay", worker=2, kind="grad", step=3),
        ])
        m1, ex = build("simulator")
        m2, rt = build(backend, deadlock_timeout=TIMEOUT)
        with rt:
            for i in range(4):
                b = slice(i * 16, (i + 1) * 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)


class TestDrop:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dropped_payload_deadlocks_then_recovers(
        self, rng, monkeypatch, backend
    ):
        """A swallowed activation starves the consumer into its channel
        timeout: the step fails with a typed PipelineDeadlockError, the
        pool is NOT wedged (every worker reported), weights are restored,
        and the runtime continues bit-identically to the simulator."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="drop", worker=1, kind="act", step=2),
        ])
        m1, ex = build("simulator")
        m2, rt = build(
            backend, deadlock_timeout=1.0, done_grace=5.0,
            overlap_boundary=False,
        )
        with rt:
            assert ex.train_step(x[:16], y[:16]) == rt.train_step(x[:16], y[:16])
            with pytest.raises(PipelineDeadlockError):
                rt.train_step(x[16:32], y[16:32])  # the dropped batch
            assert not rt.pool.wedged
            assert_weights_restored(rt)
            for i in range(2, 4):
                b = slice(i * 16, (i + 1) * 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])


class TestDuplicate:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_stale_tagged_duplicate_is_discarded(self, rng, monkeypatch, backend):
        """A duplicated message with a stale step tag must be dropped by
        the receiver's tag filter, leaving the trajectory bit-exact.
        (Thread queues carry no tags; the dup action is tag-based.)"""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="dup", worker=0, kind="act", step=2),
            FaultRule(op="send", action="dup", worker=3, kind="grad", step=3),
        ])
        m1, ex = build("simulator")
        m2, rt = build(backend, deadlock_timeout=TIMEOUT)
        with rt:
            for i in range(4):
                b = slice(i * 16, (i + 1) * 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)


class TestDisconnect:
    @pytest.mark.timeout(120)
    def test_severed_channel_raises_worker_lost(self, rng, monkeypatch):
        """Cutting one socket channel mid-step surfaces as a typed
        WorkerLostError, wedges the (budget-less) pool, and restores the
        latest weights."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="disconnect", worker=1, kind="act", step=2),
        ])
        m, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=False,
        )
        with rt:
            rt.train_step(x[:16], y[:16])
            with pytest.raises(WorkerLostError):
                rt.train_step(x[16:32], y[16:32])
            assert rt.pool.wedged
            assert_weights_restored(rt)
            with pytest.raises(RuntimeWedgedError, match="wedged"):
                rt.train_step(x[:16], y[:16])

    @pytest.mark.timeout(120)
    def test_severed_channel_respawns_with_budget(self, rng, monkeypatch):
        """With restart budget the pool replaces the worker set after a
        severed channel and the retried minibatch continues the exact
        simulator trajectory."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="disconnect", worker=1, kind="act", step=2),
        ])
        m1, ex = build("simulator")
        m2, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=False, net_options={"max_restarts": 1},
        )
        with rt:
            assert ex.train_step(x[:16], y[:16]) == rt.train_step(x[:16], y[:16])
            with pytest.raises(WorkerLostError):
                rt.train_step(x[16:32], y[16:32])
            assert not rt.pool.wedged
            # Requeue: the same minibatch retries on the fresh worker set.
            for i in range(1, 4):
                b = slice(i * 16, (i + 1) * 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)


class TestKill:
    @pytest.mark.timeout(120)
    def test_thread_worker_death_raises_and_recovers(self, rng, monkeypatch):
        """A thread worker cannot be SIGKILLed; the die action raises in
        the worker and must surface through the error path with weights
        restored and bit-exact continuation."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=1, kind="act", step=2),
        ])
        m1, ex = build("simulator")
        m2, rt = build(
            "thread", deadlock_timeout=1.0, done_grace=5.0,
            overlap_boundary=False,
        )
        with rt:
            assert ex.train_step(x[:16], y[:16]) == rt.train_step(x[:16], y[:16])
            with pytest.raises(FaultInjected):
                rt.train_step(x[16:32], y[16:32])
            assert_weights_restored(rt)
            for i in range(2, 4):
                b = slice(i * 16, (i + 1) * 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])

    @pytest.mark.timeout(120)
    def test_process_worker_death_wedges_and_close_is_fast(
        self, rng, monkeypatch
    ):
        """The shared-memory pool has no respawn story: a worker killed at
        exact mid-step coordinates wedges the pool with a deadlock error,
        and close() must still join promptly."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=1, kind="act", step=2),
        ])
        m, rt = build(
            "process", deadlock_timeout=1.0, done_grace=2.0,
            overlap_boundary=False,
        )
        rt.train_step(x[:16], y[:16])
        with pytest.raises(PipelineDeadlockError):
            rt.train_step(x[16:32], y[16:32])
        assert rt.pool.wedged
        assert_weights_restored(rt)
        t0 = time.perf_counter()
        rt.close()
        assert time.perf_counter() - t0 < 10.0, "close() hung after a kill"

    @pytest.mark.timeout(120)
    def test_process_worker_killed_while_parked_on_its_doorbell(
        self, rng, monkeypatch
    ):
        """A swallowed activation leaves worker 2 blocked inside its ring's
        semaphore, where it must cost nothing; SIGKILL it right there.  No
        token is lost or invented that the driver depends on: the death is
        typed and detected long before ``deadlock_timeout``, the pool
        wedges, and close() still reaps the survivors parked behind it."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="drop", worker=1, kind="act", step=2),
        ])
        m, rt = build(
            "process", deadlock_timeout=8.0, done_grace=2.0,
            overlap_boundary=False,
        )
        rt.train_step(x[:16], y[:16])
        victim = rt.pool._procs[2]
        parked_ticks = []

        def cpu_ticks():  # utime + stime of the victim, in clock ticks
            with open(f"/proc/{victim.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            return int(fields[11]) + int(fields[12])

        def kill_once_parked():
            time.sleep(0.2)
            before = cpu_ticks()
            time.sleep(0.4)
            parked_ticks.append(cpu_ticks() - before)
            os.kill(victim.pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_once_parked)
        killer.start()
        t0 = time.perf_counter()
        with pytest.raises(PipelineDeadlockError, match="died with exit code -9"):
            rt.train_step(x[16:32], y[16:32])
        assert time.perf_counter() - t0 < 4.0, "death noticed only by timeout"
        killer.join(5.0)
        assert parked_ticks[0] <= 1, (
            f"a parked worker burned {parked_ticks[0]} clock ticks in 0.4 s"
        )
        assert rt.pool.wedged
        assert_weights_restored(rt)
        t0 = time.perf_counter()
        rt.close()
        assert time.perf_counter() - t0 < 10.0, "close() hung after a kill"

    @pytest.mark.timeout(120)
    def test_socket_worker_death_is_typed_and_wedges_without_budget(
        self, rng, monkeypatch
    ):
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=2, kind="act", step=2),
        ])
        m, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=False,
        )
        with rt:
            rt.train_step(x[:16], y[:16])
            with pytest.raises(WorkerLostError) as exc_info:
                rt.train_step(x[16:32], y[16:32])
            assert exc_info.value.worker == 2
            assert rt.pool.wedged
            assert rt.pool.registry[2].state is TaskState.LOST
            assert_weights_restored(rt)
            with pytest.raises(RuntimeWedgedError, match="wedged"):
                rt.train_step(x[:16], y[:16])

    @pytest.mark.timeout(180)
    def test_socket_worker_death_respawns_and_retries_bit_exact(
        self, rng, monkeypatch
    ):
        """The acceptance scenario: kill a socket worker mid-step, the pool
        respawns the worker set, the driver retries the lost minibatch, and
        the whole trajectory stays bit-identical to the simulator."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=1, kind="act", step=3),
        ])
        m1, ex = build("simulator")
        m2, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=False, net_options={"max_restarts": 1},
        )
        with rt:
            losses = []
            i = 0
            while i < 5:
                b = slice(i * 16, (i + 1) * 16)
                try:
                    losses.append(rt.train_step(x[b], y[b]))
                except WorkerLostError:
                    continue  # retry the same minibatch on the fresh set
                assert losses[-1] == ex.train_step(x[b], y[b])
                i += 1
            assert rt.pool.registry.states() != [TaskState.LOST] * 4
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.timeout(180)
    def test_overlap_kill_drains_both_inflight_steps(self, rng, monkeypatch):
        """With two steps in flight, killing a worker must drain BOTH —
        the failing step and the one behind it — with no hang: the driver
        fails fast on steps that were in flight at the loss instead of
        waiting out their full deadlock timeouts."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=1, kind="act", step=2),
        ])
        m, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=True,
        )
        t0 = time.perf_counter()
        with pytest.raises(WorkerLostError):
            for i in range(4):
                b = slice(i * 16, (i + 1) * 16)
                rt.train_step(x[b], y[b])
        assert not rt._inflight, "in-flight steps were not drained"
        assert not rt.pool._issued, "pool still tracks issued steps"
        assert_weights_restored(rt)
        rt.close()
        # Generous bound, but far below what serially waiting out two full
        # deadlock windows plus close() would cost if draining hung.
        assert time.perf_counter() - t0 < 60.0


class TestRegistry:
    def test_transitions_and_illegal_moves(self):
        reg = WorkerRegistry(2, heartbeat_timeout=60.0)
        assert reg.states() == [TaskState.CONNECTING] * 2
        reg.transition(0, TaskState.READY)
        reg.transition(0, TaskState.RUNNING)
        reg.transition(0, TaskState.READY)
        reg.transition(0, TaskState.READY)  # same-state no-op
        with pytest.raises(RuntimeError, match="illegal task-state transition"):
            reg.transition(1, TaskState.RUNNING)  # CONNECTING cannot run
        reg.mark_lost(0, "first reason")
        reg.mark_lost(0, "second reason")  # idempotent; first reason wins
        assert reg[0].reason == "first reason"
        with pytest.raises(RuntimeError, match="illegal task-state transition"):
            reg.transition(0, TaskState.READY)  # LOST is terminal

    def test_heartbeat_sweep_marks_silent_workers_lost(self):
        reg = WorkerRegistry(3, heartbeat_timeout=0.05)
        reg.transition(0, TaskState.READY)
        reg.transition(1, TaskState.READY)
        reg.transition(1, TaskState.RUNNING)
        time.sleep(0.1)
        reg.beat(0)  # fresh traffic exempts worker 0
        assert reg.first_lost() is reg[1]
        assert "no heartbeat" in reg[1].reason
        assert reg[0].state is TaskState.READY
        # CONNECTING workers are exempt: handshakes have their own deadline.
        assert reg[2].state is TaskState.CONNECTING

    def test_backoff_budget_is_bounded(self):
        clock = Backoff(base=0.001, ceiling=0.002, total=0.05).start()
        t0 = time.perf_counter()
        while clock.sleep():
            pass
        assert clock.expired
        assert clock.attempts >= 2
        assert time.perf_counter() - t0 < 5.0
