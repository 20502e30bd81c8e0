"""The per-executor T2 step weight cache (``repro.pipeline.plan.StepWeightCache``).

``u = w − Δτ·δ`` is extrapolated once per (stage, version, Δτ) per optimizer
step by whoever executes the waves — each :class:`~repro.pipeline.worker.Worker`
and the simulator's ``train_step`` — into scratch that outlives the step.
What is pinned here:

* the one ``out=`` helper is bit-identical to the expression it replaced;
* extrapolations per step are a function of the stages read, never of the
  number of microbatches;
* buffers persist across steps while their values follow ``t``;
* nothing cached survives into another step — a rollback to an already
  executed ``t`` on a different trajectory, a socket ``resync`` and a
  fault-injected retry all re-extrapolate and stay bit-exact;
* the cache is private to its executor: thread workers sharing one plan,
  a step apart under the overlapped boundary, with a stage split across
  two workers and borrowed embedding coordinates, equal the simulator.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import numpy as np
import pytest

from faultutils import FaultInjected, FaultRule, FaultSpec
from repro.core import PipeMareConfig
from repro.core.discrepancy import extrapolate
from repro.experiments.workloads import make_translation_workload
from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.pipeline import AsyncPipelineRuntime, PipelineExecutor, partition_model
from repro.pipeline import plan as plan_mod
from repro.pipeline import worker as worker_mod
from repro.pipeline.executor import param_groups_from_stages
from repro.pipeline.weight_store import SharedWeightMirror

TIMEOUT = 15.0
T2 = PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5)


def toy_data(rng, n=96):
    centers = rng.normal(size=(3, 6)) * 2
    y = rng.integers(0, 3, size=n)
    x = centers[y] + rng.normal(size=(n, 6))
    return x, y


def batch(i, size=16, n=96):
    lo = (i * size) % n
    return slice(lo, lo + size)


def build(backend, num_microbatches=2, seed=7, **kw):
    """4-stage MLP under PipeMare T1+T2 on ``backend`` ("simulator" or a
    worker backend of :class:`AsyncPipelineRuntime`)."""
    model = MLP([6, 8, 8, 8, 3], np.random.default_rng(seed))
    stages = partition_model(model, 4)
    opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
    args = (model, CrossEntropyLoss(), opt, stages, num_microbatches, "pipemare")
    if backend == "simulator":
        return model, PipelineExecutor(*args, pipemare=T2, **kw)
    kw.setdefault("deadlock_timeout", TIMEOUT)
    return model, AsyncPipelineRuntime(*args, pipemare=T2, backend=backend, **kw)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the one extrapolation helper, per calling thread
    (thread workers are named ``pipe-worker-<w>``)."""
    counts: Counter = Counter()

    def counting(w, v, dtau, out=None):
        counts[threading.current_thread().name] += 1
        return extrapolate(w, v, dtau, out=out)

    monkeypatch.setattr(plan_mod, "extrapolate", counting)
    return counts


def worker_calls(calls):
    """Helper calls made on worker threads (the simulator and the driver
    run on the main thread)."""
    return sum(c for name, c in calls.items() if name.startswith("pipe-worker-"))


def distinct_reads(plan, t, positions):
    """Parameter arrays one executor must extrapolate for async minibatch
    ``t``: one per position per distinct (stage, version, Δτ) among its
    backward and recompute reads."""
    keys = set()
    for s in positions:
        for j in range(plan.num_microbatches):
            reads = [plan.backward_read(s, t, j, False)]
            if plan.recompute_active(False):
                reads.append(plan.recompute_read(s, t, j))
            keys.update((s, v, d) for v, d in reads if d is not None)
    return sum(len(positions[s]) for s, _, _ in keys)


def all_positions(plan):
    return {s: list(range(len(st.params))) for s, st in enumerate(plan.stages)}


# -- (b) the helper ------------------------------------------------------------


def _bits(a):
    return np.asarray(a).tobytes()


def _layouts(rng):
    base = rng.normal(size=(6, 8))
    yield "c", base.copy(), rng.normal(size=(6, 8))
    yield "fortran", np.asfortranarray(base), np.asfortranarray(rng.normal(size=(6, 8)))
    yield "strided", rng.normal(size=(12, 16))[::2, ::2], rng.normal(size=(6, 16))[:, ::2]
    yield "zero_d", np.array(1.25), np.array(-0.5)
    yield "zero_size", np.empty((0, 4)), np.empty((0, 4))
    signed = np.array([0.0, -0.0, 1.0, -1.0])
    yield "signed_zeros", signed, np.array([-3.0, 3.0, 0.0, -0.0])


class TestHelper:
    @pytest.mark.parametrize("dtau", [0.0, 1.0, 2.75, np.float64(10.0 / 3.0)])
    def test_bit_identical_to_the_expression(self, rng, dtau):
        for name, w, v in _layouts(rng):
            want = w - dtau * v
            got = extrapolate(w, v, dtau)
            assert isinstance(got, np.ndarray) and got.shape == w.shape, name
            assert _bits(got) == _bits(want), name
            # second call into the first call's result: same bits, same object
            again = extrapolate(w, v, dtau, out=got)
            assert again is got, name
            assert _bits(again) == _bits(want), name

    def test_fresh_result_keeps_the_weight_layout(self, rng):
        w = np.asfortranarray(rng.normal(size=(5, 7)))
        out = extrapolate(w, np.asfortranarray(rng.normal(size=(5, 7))), 2.0)
        assert out.flags.f_contiguous and out.strides == (w - 2.0 * w).strides

    def test_read_only_mirror_view(self, rng):
        """``w`` and ``v`` as a process worker sees them: read-only views
        into the shared mirror."""
        shapes = [[(4, 5), (5,)]]
        name = f"pmwc{threading.get_native_id():x}"
        driver = SharedWeightMirror(name, shapes, 2, with_velocity=True, create=True)
        try:
            weights = [rng.normal(size=s) for s in shapes[0]]
            velocity = [rng.normal(size=s) for s in shapes[0]]
            driver.publish_velocity([velocity])
            driver.publish_version(0, [weights])
            reader = SharedWeightMirror(name, shapes, 2, with_velocity=True, readonly=True)
            try:
                for w, v, w0, v0 in zip(
                    reader.weights(0, 0), reader.velocity(0), weights, velocity
                ):
                    assert not w.flags.writeable and not v.flags.writeable
                    out = extrapolate(w, v, 3.0)
                    assert out.flags.writeable
                    assert _bits(out) == _bits(w0 - 3.0 * v0)
                    assert _bits(w) == _bits(w0)  # the mirror is untouched
            finally:
                reader.close()
        finally:
            driver.unlink()
            driver.close()


# -- (a) how often --------------------------------------------------------------


class TestExtrapolationsPerStep:
    @pytest.mark.parametrize("recompute_segment", [None, 2])
    @pytest.mark.parametrize("n", [2, 8])
    def test_simulator_once_per_distinct_read(self, rng, calls, n, recompute_segment):
        x, y = toy_data(rng)
        _, ex = build("simulator", n, recompute_segment=recompute_segment)
        positions = all_positions(ex.plan)
        for i in range(5):
            before = sum(calls.values())
            want = distinct_reads(ex.plan, ex.t, positions)
            ex.train_step(x[batch(i)], y[batch(i)])
            assert sum(calls.values()) - before == want, f"step {i}"

    def test_independent_of_num_microbatches(self, rng, calls):
        """Plain T2: one extrapolation per parameter of every stage with
        Δτ > 0, whether the step has 2 or 8 backward waves.  With recompute
        a stage adds one per distinct recompute version (at most two)."""
        x, y = toy_data(rng)
        per_step = {}
        for n in (2, 8):
            _, ex = build("simulator", n)
            t2_stages = [s for s in range(ex.plan.num_stages) if ex.corrector.dtau[s] > 0]
            assert t2_stages
            calls.clear()
            for i in range(4):
                ex.train_step(x[batch(i)], y[batch(i)])
            per_step[n] = sum(calls.values()) / 4
            assert per_step[n] == sum(len(ex.stages[s].params) for s in t2_stages)
        assert per_step[2] == per_step[8]
        for n in (2, 8):
            _, ex = build("simulator", n, recompute_segment=2)
            params = sum(len(s.params) for s in ex.stages)
            calls.clear()
            ex.train_step(x[:16], y[:16])
            assert sum(calls.values()) <= 3 * params

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("recompute_segment", [None, 2])
    @pytest.mark.parametrize("n", [2, 8])
    def test_each_thread_worker_once_per_stage_it_reads(
        self, rng, calls, n, recompute_segment
    ):
        x, y = toy_data(rng)
        steps = 4
        _, rt = build("thread", n, recompute_segment=recompute_segment)
        with rt:
            want = Counter()
            for i in range(steps):
                for w in rt.workers:
                    want[f"pipe-worker-{w.index}"] += distinct_reads(
                        rt.plan, i, w.read_positions
                    )
                rt.train_step(x[batch(i)], y[batch(i)])
            rt.sync()
        assert +calls == +want
        if recompute_segment is None:
            for w in rt.workers:
                t2 = [s for s in w.read_stages if rt.corrector.dtau[s] > 0]
                assert calls[f"pipe-worker-{w.index}"] == steps * sum(
                    len(w.read_positions[s]) for s in t2
                )


# -- (c) persistent buffers ------------------------------------------------------


class TestPersistentBuffers:
    def test_same_objects_new_values(self, rng):
        x, y = toy_data(rng)
        _, ex = build("simulator", 2)
        cache, plan = ex._weights, ex.plan
        stage = max(range(plan.num_stages), key=lambda s: plan.corrector.dtau[s])
        dtau = plan.corrector.dtau[stage]
        seen = []
        for i in range(4):
            ex.train_step(x[batch(i)], y[batch(i)])
            cache.begin_step()
            arrays = cache.backward_weights(stage, ex.t, 0, False)
            assert cache.backward_weights(stage, ex.t, 1, False) is arrays
            for a, w, v in zip(
                arrays, plan.store.weights(stage, ex.t), plan.corrector.velocity[stage]
            ):
                assert _bits(a) == _bits(w - dtau * v)
            seen.append((arrays, list(arrays), [a.copy() for a in arrays]))
        first_list, first_arrays, _ = seen[0]
        for arrays, members, _ in seen[1:]:
            assert arrays is first_list
            assert all(a is b for a, b in zip(members, first_arrays))
        # ... and the values did move with t
        assert any(
            _bits(a) != _bits(b) for a, b in zip(seen[0][2], seen[-1][2])
        )

    def test_worker_scratch_covers_only_what_it_reads(self, rng):
        """A worker's lists are whole-stage long but hold arrays only at the
        positions it binds or borrows."""
        x, y = toy_data(rng)
        model = MLP([6, 8, 8, 8, 3], np.random.default_rng(7))
        stages = partition_model(model, 2)  # two Linear layers per stage
        opt = SGD(param_groups_from_stages(stages), lr=0.05)
        ex = PipelineExecutor(model, CrossEntropyLoss(), opt, stages, 2, "pipemare", pipemare=T2)
        ex.train_step(x[:16], y[:16])
        cache = plan_mod.StepWeightCache(ex.plan, {0: [1, 2]})
        arrays = cache.backward_weights(0, ex.t, 0, False)
        assert len(arrays) == len(stages[0].params)
        assert [a is not None for a in arrays] == [False, True, True, False]


# -- (d) nothing survives a step -------------------------------------------------


class TestNoStaleReads:
    @pytest.mark.net
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("backend", ["thread", "process", "socket"])
    def test_rollback_onto_a_different_trajectory_at_the_same_t(self, rng, backend):
        """The runtime executes minibatches 0..3, then is restored to a
        *different* run's state at t = 3 (for the socket backend that is
        the ``resync`` command).  Its workers extrapolated stage versions
        for t = 3 on the old trajectory; none of it may be served now."""
        x, y = toy_data(rng)
        m_sim, sim = build("simulator")
        for i in range(3):  # the other trajectory: batches in reverse order
            sim.train_step(x[batch(5 - i)], y[batch(5 - i)])
        state, opt_state = sim.state_dict(), sim.optimizer.state_dict()

        m_rt, rt = build(backend)
        with rt:
            for i in range(4):
                rt.train_step(x[batch(i)], y[batch(i)])
            rt.sync()
            m_rt.load_state_dict(m_sim.state_dict())
            rt.optimizer.load_state_dict(opt_state)
            rt.load_state_dict(state)
            assert rt.t == sim.t == 3
            for i in range(3, 8):
                assert sim.train_step(x[batch(i)], y[batch(i)]) == rt.train_step(
                    x[batch(i)], y[batch(i)]
                ), f"step {i}"
            rt.sync()
            for p1, p2 in zip(m_sim.parameters(), m_rt.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)

    def test_simulator_restore_at_unchanged_t(self, rng):
        x, y = toy_data(rng)
        m1, a = build("simulator")
        m2, b = build("simulator")
        for i in range(3):
            a.train_step(x[batch(i)], y[batch(i)])
            b.train_step(x[batch(5 - i)], y[batch(5 - i)])
        b.train_step(x[batch(0)], y[batch(0)])  # b has executed t = 3 ...
        m2.load_state_dict(m1.state_dict())
        b.optimizer.load_state_dict(a.optimizer.state_dict())
        b.load_state_dict(a.state_dict())       # ... and runs it again as a
        for i in range(3, 7):
            assert a.train_step(x[batch(i)], y[batch(i)]) == b.train_step(
                x[batch(i)], y[batch(i)]
            )

    @pytest.mark.net
    @pytest.mark.timeout(120)
    def test_retried_step_extrapolates_again(self, rng, calls, monkeypatch):
        """A thread worker dies sending its first gradient of step 2 — after
        the downstream workers already extrapolated for that minibatch.  The
        surviving Worker objects serve the retry; they must start it with
        no keys, i.e. pay a full step's extrapolations again."""
        spec = FaultSpec([
            FaultRule(op="send", action="die", worker=1, kind="grad", step=2),
        ])
        monkeypatch.setattr(worker_mod, "_channel_hook", spec.wrap)
        x, y = toy_data(rng)
        m1, sim = build("simulator")
        m2, rt = build(
            "thread", deadlock_timeout=1.0, done_grace=5.0, overlap_boundary=False
        )
        with rt:
            full_step = sum(
                distinct_reads(rt.plan, 1, w.read_positions) for w in rt.workers
            )
            assert sim.train_step(x[batch(0)], y[batch(0)]) == rt.train_step(
                x[batch(0)], y[batch(0)]
            )
            before = worker_calls(calls)
            with pytest.raises(FaultInjected):
                rt.train_step(x[batch(1)], y[batch(1)])
            failed = worker_calls(calls) - before
            assert 0 < failed <= full_step
            for i in range(1, 4):
                before = worker_calls(calls)
                assert sim.train_step(x[batch(i)], y[batch(i)]) == rt.train_step(
                    x[batch(i)], y[batch(i)]
                )
                assert worker_calls(calls) - before == full_step
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)


# -- (e) the cache is the worker's, not the plan's -------------------------------


class TestOwnedByTheWorker:
    def test_thread_workers_share_the_plan_but_not_the_cache(self, rng):
        _, rt = build("thread")
        with rt:
            workers = rt.group.pools[0]._workers
            assert all(w.resolver is rt.plan for w in workers)
            assert len({id(w.weights) for w in workers}) == len(workers)
            assert not hasattr(rt.plan, "_scratch")

    @pytest.mark.timeout(180)
    def test_split_stage_borrowed_embedding_overlapped_thread(self, monkeypatch):
        """The configuration on which a resolver-level buffer diverged from
        the simulator on most steps: thread backend (one shared plan),
        overlapped boundary with two steps in flight, two-stream
        Transformer with shared embeddings whose tied projection borrows
        the embedding stage's coordinates on the last worker, sublayer
        slicing with stages split across two workers.

        That failure is a race — a buffer is rewritten while another
        worker's wave still computes with it — so the helper is slowed down
        between its two writes, when ``out`` holds Δτ·δ instead of weights.
        Private scratch is never read by anyone else in that window."""

        def torn(w, v, dtau, out=None):
            if out is None:
                out = np.empty_like(w)
            np.multiply(v, dtau, out=out)
            time.sleep(2e-4)
            return np.subtract(w, out, out=out)

        monkeypatch.setattr(plan_mod, "extrapolate", torn)
        workload = make_translation_workload(
            "wmt", batches_per_epoch=4, batch_size=16, num_microbatches=4, eval_size=8
        )
        data_rng = np.random.default_rng(5)
        saved, workload.task.rng = workload.task.rng, data_rng
        batches = [workload.task.sample_batch(16) for _ in range(14)]
        workload.task.rng = saved
        kw = dict(seed=0, num_stages=6, granularity="sublayer", pipemare=T2)
        sim = workload.bundle(runtime="simulator", **kw)
        thr = workload.bundle(runtime="async", **kw)
        rt = thr.executor
        try:
            assert rt.overlap and rt.inflight_steps == 2
            owners: dict[int, set[int]] = {}
            for w in rt.workers:
                for b in w.bindings:
                    owners.setdefault(b.stage, set()).add(w.index)
            assert any(len(o) > 1 for o in owners.values()), "no stage is split"
            borrowed = {
                s for w in rt.workers for borrow in w.borrows for s, _ in borrow.coords
            }
            assert borrowed and rt.corrector is not None
            assert any(rt.corrector.dtau[s] > 0 for s in borrowed)
            for i, bt in enumerate(batches):
                l1 = sim.executor.train_step((bt.src, bt.tgt_in), bt.tgt_out)
                l2 = rt.train_step((bt.src, bt.tgt_in), bt.tgt_out)
                assert l1 == l2, f"step {i}: simulator {l1!r} != thread {l2!r}"
            rt.sync()
            for p1, p2 in zip(sim.model.parameters(), thr.model.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)
        finally:
            rt.close()
