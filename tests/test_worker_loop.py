"""The unified worker loop against a fake endpoint.

``repro.pipeline.worker.Worker`` is what every concurrent backend runs; the
backends differ only in the channel set and in where gradients go back.
These tests drive ``Worker.serve`` in-process — commands come from a list,
replies land in a list, channels are plain queues — so the loop's contract
is pinned without spawning a thread, process or socket pool:

* one ``step`` command → exactly one done report, carrying lanes;
* a raising segment → ``"error"`` with a picklable exception;
* a channel timeout → ``"deadlock"``;
* ``release_all`` on every exit path of a step;
* ``pstate`` applied before the next ``step``;
* an unknown command tag raises (typed), it is not skipped;
* ``shutdown`` and EOF both leave the loop cleanly.
"""

from __future__ import annotations

import pickle
import queue
from collections import deque

import numpy as np
import pytest

from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.pipeline import (
    StepPlan,
    TransportError,
    build_worker_graph,
    partition_model,
)
from repro.pipeline.executor import param_groups_from_stages
from repro.pipeline.plan import split_views
from repro.pipeline.transport import QueueChannels, unpack_lanes
from repro.pipeline.worker import Worker, _build_wave_programs

N = 2  # microbatches


class CountingChannels(QueueChannels):
    def __init__(self, queues, timeout):
        super().__init__(queues, timeout)
        self.released = 0

    def release_all(self):
        self.released += 1


def make_worker(w=0, num_workers=1, export_grads=None, timeout=0.05):
    """Worker ``w`` of a ``num_workers``-worker MLP pipeline, built the way
    the thread pool builds it: over the live model slice and StepPlan."""
    model = MLP([6, 8, 8, 3], np.random.default_rng(7))
    stages = partition_model(model, num_workers)
    opt = SGD(param_groups_from_stages(stages), lr=0.05)
    plan = StepPlan(model.parameters(), opt, stages, N, "pipemare")
    graph = build_worker_graph(model, stages)
    assert graph.num_workers == num_workers
    programs = _build_wave_programs(plan.method, plan, graph, N, False, True)
    queues = {
        (kind, e.index): queue.SimpleQueue()
        for e in graph.cross_edges()
        for kind in ("act", "rec", "grad")
    }
    chans = CountingChannels(queues, timeout)
    sink = w == num_workers - 1
    worker = Worker(
        w, graph.workers[w], plan, programs,
        CrossEntropyLoss() if sink else None, chans, N, timeout, export_grads,
    )
    return worker, plan, chans


def step_command(plan, seq, rng, features=6):
    x = rng.normal(size=(8, features))
    y = rng.integers(0, 3, size=8)
    xs, ys = split_views(x, N), split_views(y, N)
    scales = [plan.grad_scale(len(xj), len(x)) for xj in xs]
    return ("step", seq, plan.t, plan.is_sync_step(), scales, {0: xs}, ys)


def serve(worker, commands):
    """Run the serve loop over ``commands``; EOF once they are exhausted."""
    pending = deque(commands)
    sent = []

    def recv():
        if not pending:
            raise EOFError
        return pending.popleft()

    worker.serve(recv, sent.append)
    return sent


def done_reports(sent):
    return [msg[1] for msg in sent if msg[0] == "done" and msg[1][2] != "losses"]


class TestStep:
    def test_one_step_one_done_report_with_lanes(self, rng):
        worker, plan, chans = make_worker()
        plan.begin_step()
        sent = serve(worker, [step_command(plan, 1, rng)])
        (report,) = done_reports(sent)
        w, seq, kind, busy, xfer, stall, payload = report
        assert (w, seq, kind) == (0, 1, "ok")
        losses, pstate, grads, lanes = payload
        assert len(losses) == N and all(np.isfinite(losses))
        # in-place gradient return: nothing is shipped, grads are live
        assert pstate is None and grads is None
        assert any(np.any(p.grad != 0) for p in plan.params)
        lanes = unpack_lanes(lanes)
        assert sum(n for n, *_ in lanes) == worker.programs[False][0].num_waves
        assert busy == pytest.approx(sum(lane[1] for lane in lanes))
        assert xfer == 0.0 and stall >= 0.0
        # the sink also announced its losses early, before the done report
        assert sent[0][1][2] == "losses" and sent[0][1][6] == losses
        assert chans.released == 1

    def test_export_grads_seam_zeroes_then_ships(self, rng):
        shipped = []

        def export(compute, seq):
            shipped.append(seq)
            return [(b.stage, list(b.positions), [p.grad.copy() for p in b.params])
                    for b in compute.bindings]

        worker, plan, _ = make_worker(export_grads=export)
        for p in plan.params:
            p.grad.fill(123.0)  # stale accumulations a private replica must clear
        (report,) = done_reports(serve(worker, [step_command(plan, 5, rng)]))
        assert report[2] == "ok" and shipped == [5]
        grads = report[6][2]
        assert sorted(s for s, _, _ in grads) == list(range(len(plan.stages)))
        assert all(np.all(np.abs(a) < 100) for _, _, arrs in grads for a in arrs)

    def test_raising_segment_reports_picklable_error(self, rng):
        worker, plan, chans = make_worker()
        plan.begin_step()
        # wrong feature dimension: the first Linear raises inside the segment
        sent = serve(worker, [step_command(plan, 1, rng, features=4)])
        (report,) = done_reports(sent)
        assert report[:3] == (0, 1, "error")
        exc = report[6]
        assert isinstance(exc, Exception)
        assert type(pickle.loads(pickle.dumps(exc))) is type(exc)
        assert chans.released == 1

    def test_unpicklable_error_is_flattened(self, rng):
        worker, plan, _ = make_worker()

        class Local(Exception):  # local classes cannot be pickled
            pass

        def boom(ins):
            raise Local("nope")

        worker.compute.segments[0].forward = boom
        (report,) = done_reports(serve(worker, [step_command(plan, 1, rng)]))
        assert report[2] == "error"
        assert isinstance(report[6], RuntimeError) and "Local: nope" in str(report[6])

    def test_channel_timeout_reports_deadlock(self, rng):
        # Worker 1 of 2 waits for an activation nobody sends.
        worker, plan, chans = make_worker(w=1, num_workers=2)
        cmd = step_command(plan, 1, rng)
        cmd = cmd[:5] + ({}, cmd[6])  # no external inputs reach worker 1
        (report,) = done_reports(serve(worker, [cmd]))
        assert report[:3] == (1, 1, "deadlock")
        assert "never arrived" in report[6]
        assert chans.released == 1

    def test_stale_tagged_payloads_are_discarded(self, rng):
        """Residue of an aborted step (older tag) in a channel is dropped,
        not delivered: the worker still times out waiting for this step's
        payload."""
        worker, plan, chans = make_worker(w=1, num_workers=2)
        (act,) = [q for (kind, _), q in chans._queues.items() if kind == "act"]
        act.put((3, np.zeros((4, 8))))  # tag 3 != step 4
        cmd = step_command(plan, 4, rng)
        (report,) = done_reports(serve(worker, [cmd[:5] + ({}, cmd[6])]))
        assert report[2] == "deadlock"
        assert act.empty()


class TestCommands:
    def test_pstate_lands_before_the_next_step(self, rng):
        worker, plan, _ = make_worker()
        plan.begin_step()
        events = []
        worker.compute.load_persistent_state = lambda st: events.append(("pstate", st))
        forward = worker.compute.segments[0].forward

        def spy(ins, *a):
            events.append("forward")
            return forward(ins, *a)

        worker.compute.segments[0].forward = spy
        sent = serve(worker, [("pstate", "S"), step_command(plan, 1, rng)])
        assert events[0] == ("pstate", "S") and events[1] == "forward"
        assert [r[2] for r in done_reports(sent)] == ["ok"]

    def test_fence_is_answered_in_order(self, rng):
        worker, plan, _ = make_worker()
        plan.begin_step()
        sent = serve(worker, [step_command(plan, 1, rng), ("fence", 9)])
        assert sent[-1] == ("fenced", 0, 9)
        assert sent[-2][0] == "done" and sent[-2][1][2] == "ok"

    def test_unknown_command_raises_typed(self, rng):
        worker, plan, _ = make_worker()
        with pytest.raises(TransportError, match="unknown command 'bogus'"):
            serve(worker, [("bogus", 1), step_command(plan, 1, rng)])

    def test_shutdown_and_eof_return_cleanly(self, rng):
        worker, plan, _ = make_worker()
        # commands after shutdown are never looked at
        assert serve(worker, [("shutdown",), ("bogus",)]) == []
        assert serve(worker, []) == []  # immediate EOF

    def test_vanished_driver_ends_the_loop(self, rng):
        """A reply that cannot be delivered (transport error from ``send``)
        means the driver is gone: the loop exits instead of raising."""
        worker, plan, _ = make_worker()
        plan.begin_step()
        calls = []

        def send(msg):
            calls.append(msg)
            if msg[1][2] != "losses":
                raise TransportError("driver went away")

        pending = deque([step_command(plan, 1, rng), ("fence", 1)])
        worker.serve(pending.popleft, send)
        assert pending  # the fence was never reached
        assert calls[-1][1][2] == "ok"


class TestCacheState:
    """``WorkerCompute.cache_state`` resolves each module's cache attribute
    names once; the per-wave snapshot must still equal a fresh scan."""

    @staticmethod
    def reference(compute):
        """The per-wave scan the cached schema replaced."""
        return [
            {
                k: (v.copy() if isinstance(v, (list, dict, set)) else v)
                for k, v in m.__dict__.items()
                if k.startswith("_") and k not in ("_parameters", "_modules")
            }
            for m in compute.all_modules
        ]

    def test_matches_a_fresh_scan_and_sees_lazily_grown_caches(self, rng):
        worker, plan, _ = make_worker()
        compute = worker.compute
        assert compute.cache_state() == self.reference(compute)  # schema resolved
        plan.begin_step()
        serve(worker, [step_command(plan, 1, rng)])  # forwards refill the caches
        state, expect = compute.cache_state(), self.reference(compute)
        assert [set(a) for a in state] == [set(a) for a in expect]
        for got, want in zip(state, expect):
            assert all(got[k] is want[k] for k in got)  # arrays by reference
        # a cache first assigned inside forward(), after the schema was resolved
        module = compute.all_modules[-1]
        object.__setattr__(module, "_lazy_stack", [np.ones(2)])
        snap = compute.cache_state()[-1]
        assert snap["_lazy_stack"] == [module._lazy_stack[0]]
        assert snap["_lazy_stack"] is not module._lazy_stack, "containers are copied"
        # restoring an older snapshot and snapshotting again round-trips
        module._lazy_stack.append(np.zeros(2))
        compute.load_cache_state([{}] * (len(compute.all_modules) - 1) + [snap])
        assert len(compute.cache_state()[-1]["_lazy_stack"]) == 1
