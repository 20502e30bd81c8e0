"""Differential tests: the framed-socket runtime must be bit-for-bit
identical to the sequential simulator.

Same contract as ``tests/test_runtime_process.py`` for the shared-memory
backend — same grid, same assertion style — but every payload crosses a
real socket (UDS loopback by default, one TCP case): spec-based worker
construction, the version-gated remote weight mirror, gradients riding
the done reports, persistent-state sync back, and checkpoint resync over
the control channel.  ``TestWireBudget`` pins what the partitioning buys on
the wire: each worker is sent only the stages it reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from faultutils import FaultRule, FaultSpec
from repro.core import PipeMareConfig
from repro.experiments import make_translation_workload
from repro.models import MLP
from repro.models.resnet import resnet_tiny
from repro.nn import CrossEntropyLoss
from repro.optim import SGD, AdamW
from repro.pipeline import (
    RUNTIME_BACKENDS,
    AsyncPipelineRuntime,
    PipelineExecutor,
    WorkerLostError,
    make_backend,
    partition_model,
)
from repro.pipeline import worker as worker_mod
from repro.pipeline.executor import param_groups_from_stages

pytestmark = pytest.mark.net

TIMEOUT = 15.0  # deadlock timeout for every runtime in this file


def toy_classification(rng, d=6, c=3, n=96):
    centers = rng.normal(size=(c, d)) * 2
    y = rng.integers(0, c, size=n)
    x = centers[y] + rng.normal(size=(n, d))
    return x, y


def build_mlp_backend(cls, method, *, num_stages, num_microbatches, cfg=None,
                      seed=7, lr=0.05, momentum=0.9, dims=(6, 8, 8, 8, 3), **kw):
    model = MLP(list(dims), np.random.default_rng(seed))
    stages = partition_model(model, num_stages)
    opt = SGD(param_groups_from_stages(stages), lr=lr, momentum=momentum)
    backend = cls(
        model, CrossEntropyLoss(), opt, stages, num_microbatches, method,
        pipemare=cfg, **kw,
    )
    return model, backend


def build_socket_backend(method, **kw):
    kw.setdefault("deadlock_timeout", TIMEOUT)
    return build_mlp_backend(AsyncPipelineRuntime, method, backend="socket", **kw)


def assert_equivalent(m1, ex, m2, rt, x, y, steps=6, batch=16):
    for i in range(steps):
        b = slice((i * batch) % (len(x) - batch + 1), (i * batch) % (len(x) - batch + 1) + batch)
        l1 = ex.train_step(x[b], y[b])
        l2 = rt.train_step(x[b], y[b])
        assert l1 == l2, f"step {i}: simulator loss {l1!r} != socket loss {l2!r}"
    if hasattr(rt, "sync"):
        rt.sync()  # settle a pending overlapped boundary before comparing
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)


TECHNIQUES = {
    "plain": dict(cfg=None, kw={}),
    "t1": dict(cfg=PipeMareConfig.t1_only(anneal_steps=50), kw={}),
    "t2": dict(cfg=PipeMareConfig.t2_only(decay=0.5), kw={}),
    "t1t2": dict(cfg=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5), kw={}),
    "t3": dict(
        cfg=PipeMareConfig.full(anneal_steps=50, warmup_steps=2, decay=0.5), kw={}
    ),
    "recompute": dict(
        cfg=PipeMareConfig.t2_only(decay=0.5), kw={"recompute_segment": 2}
    ),
}


class TestDifferentialGrid:
    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    @pytest.mark.parametrize("num_stages,num_microbatches", [(2, 2), (4, 2), (4, 4), (3, 4)])
    def test_methods_match_bitwise(self, rng, method, num_stages, num_microbatches):
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, method,
            num_stages=num_stages, num_microbatches=num_microbatches,
        )
        m2, rt = build_socket_backend(
            method, num_stages=num_stages, num_microbatches=num_microbatches,
        )
        with rt:
            assert rt.num_workers == num_stages
            assert rt.pool.kind == "socket"
            assert_equivalent(m1, ex, m2, rt, x, y)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_pipemare_techniques_match_bitwise(self, rng, technique):
        x, y = toy_classification(rng)
        spec = TECHNIQUES[technique]
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2,
            cfg=spec["cfg"], **spec["kw"],
        )
        m2, rt = build_socket_backend(
            "pipemare", num_stages=4, num_microbatches=2,
            cfg=spec["cfg"], **spec["kw"],
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y, steps=8)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("overlap", [True, False])
    def test_overlap_on_and_off_match(self, rng, overlap):
        """The overlapped optimizer boundary must not change the trajectory
        over sockets, exactly as over rings and queues."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2,
        )
        m2, rt = build_socket_backend(
            "pipemare", num_stages=4, num_microbatches=2,
            overlap_boundary=overlap,
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y)

    @pytest.mark.timeout(180)
    def test_ragged_microbatches_match(self, rng):
        """10 samples into 4 microbatches: the per-microbatch grad weighting
        must agree across backends."""
        x, y = toy_classification(rng, n=10)
        m1, ex = build_mlp_backend(PipelineExecutor, "pipemare", num_stages=4, num_microbatches=4)
        m2, rt = build_socket_backend("pipemare", num_stages=4, num_microbatches=4)
        with rt:
            for _ in range(4):
                assert ex.train_step(x, y) == rt.train_step(x, y)
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.timeout(180)
    def test_adamw_backend_matches(self, rng):
        """Optimizer state (moments) must evolve identically too — the
        optimizer consumes gradients that rode the done reports."""
        x, y = toy_classification(rng)
        models, backends = [], []
        for cls, kw in (
            (PipelineExecutor, {}),
            (AsyncPipelineRuntime, {"backend": "socket", "deadlock_timeout": TIMEOUT}),
        ):
            model = MLP([6, 8, 8, 3], np.random.default_rng(3))
            stages = partition_model(model, 3)
            opt = AdamW(param_groups_from_stages(stages), lr=0.01, weight_decay=0.01)
            backends.append(cls(model, CrossEntropyLoss(), opt, stages, 2, "pipemare", **kw))
            models.append(model)
        m1, m2 = models
        ex, rt = backends
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y)

    @pytest.mark.timeout(240)
    def test_resnet_batchnorm_matches_and_syncs_running_stats(self, rng):
        """BatchNorm emits transposed NCHW intermediates (the frame codec
        must preserve memory layout for bit equality) and its running
        statistics mutate inside the workers — they must land back in the
        driver's model."""
        x = rng.normal(size=(16, 3, 8, 8))
        y = rng.integers(0, 10, size=16)
        models, backends = [], []
        for cls, kw in (
            (PipelineExecutor, {}),
            (AsyncPipelineRuntime, {"backend": "socket", "deadlock_timeout": TIMEOUT}),
        ):
            model = resnet_tiny(np.random.default_rng(1), norm="batch")
            stages = partition_model(model, 4)
            opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
            backends.append(cls(model, CrossEntropyLoss(), opt, stages, 4, "pipemare", **kw))
            models.append(model)
        ex, rt = backends
        with rt:
            for _ in range(3):
                assert ex.train_step(x, y) == rt.train_step(x, y)
            rt.sync()
            for p1, p2 in zip(models[0].parameters(), models[1].parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)
            for m_sim, m_sock in zip(models[0].modules(), models[1].modules()):
                for name, value in m_sim.__dict__.items():
                    if (
                        not name.startswith("_")
                        and isinstance(value, np.ndarray)
                        and name not in m_sim._parameters
                    ):
                        np.testing.assert_array_equal(
                            value, m_sock.__dict__[name],
                            err_msg=f"{type(m_sim).__name__}.{name} not synced",
                        )

    @pytest.mark.timeout(180)
    def test_tcp_family_matches(self, rng):
        """Same trajectory over TCP loopback — length-prefixed framing must
        hold across the byte-stream semantics of a real TCP connection
        (Nagle off, partial reads, coalesced segments)."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=3, num_microbatches=2,
        )
        m2, rt = build_socket_backend(
            "pipemare", num_stages=3, num_microbatches=2,
            net_options={"family": "tcp"},
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y, steps=4)


class TestRuntimeContract:
    @pytest.mark.timeout(180)
    def test_checkpoint_roundtrip_from_simulator(self, rng):
        """A simulator checkpoint restored into the socket runtime resyncs
        every remote mirror (K_RESET + version window + velocities over the
        weight channel, a resync barrier on the control channel) and
        continues the exact same trajectory."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2)
        for i in range(3):
            ex.train_step(x[i * 16:(i + 1) * 16], y[i * 16:(i + 1) * 16])
        state = ex.state_dict()
        opt_state = ex.optimizer.state_dict()

        m2, rt = build_socket_backend("pipemare", num_stages=4, num_microbatches=2)
        with rt:
            m2.load_state_dict(m1.state_dict())
            rt.optimizer.load_state_dict(opt_state)
            rt.load_state_dict(state)
            assert rt.t == ex.t
            for i in range(3, 6):
                b = slice((i * 16) % 80, (i * 16) % 80 + 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])

    @pytest.mark.timeout(180)
    def test_make_backend_dispatch(self, rng):
        x, y = toy_classification(rng)
        assert "socket" in RUNTIME_BACKENDS
        model = MLP([6, 8, 3], np.random.default_rng(0))
        stages = partition_model(model, 2)
        opt = SGD(param_groups_from_stages(stages), lr=0.05)
        rt = make_backend(
            "socket", model, CrossEntropyLoss(), opt, stages, 2, "pipemare",
            deadlock_timeout=TIMEOUT,
        )
        try:
            assert isinstance(rt, AsyncPipelineRuntime)
            assert rt.backend == "socket"
            rt.train_step(x[:16], y[:16])
        finally:
            rt.close()

    @pytest.mark.timeout(120)
    def test_replicas_not_supported_yet(self, rng):
        with pytest.raises(ValueError, match="num_replicas"):
            build_socket_backend(
                "pipemare", num_stages=2, num_microbatches=2, num_replicas=2,
            )

    @pytest.mark.timeout(120)
    def test_net_options_rejected_off_socket(self, rng):
        with pytest.raises(ValueError, match="net_options"):
            build_mlp_backend(
                AsyncPipelineRuntime, "pipemare", num_stages=2,
                num_microbatches=2, backend="process",
                net_options={"family": "tcp"},
            )

    @pytest.mark.timeout(180)
    def test_closed_runtime_rejects_steps(self, rng):
        x, y = toy_classification(rng)
        m, rt = build_socket_backend("pipemare", num_stages=2, num_microbatches=2)
        rt.close()
        rt.close()  # idempotent
        with pytest.raises(RuntimeError):
            rt.train_step(x[:16], y[:16])


class TestWireBudget:
    """The model is partitioned on the weight sockets too: an optimizer
    boundary moves each stage to the worker(s) reading it, once — about one
    model's worth of bytes, not one per worker.  A regression to broadcast
    fails here, not just in a benchmark row."""

    @staticmethod
    def frame_bytes(arrays) -> int:
        """A weight/velocity frame on the wire: 20-byte frame header,
        24-byte payload header, then per array a 32-byte part header,
        16 bytes per dimension and the 8-aligned data."""
        return 20 + 24 + sum(
            32 + 16 * a.ndim + (a.nbytes + 7) // 8 * 8 for a in arrays
        )

    @pytest.mark.timeout(180)
    def test_weight_bytes_per_boundary_are_one_model_not_one_per_worker(
        self, rng, monkeypatch
    ):
        monkeypatch.setattr(worker_mod, "_channel_hook", FaultSpec([
            FaultRule(op="send", action="die", worker=2, kind="act", step=3),
        ]).wrap)
        x, y = toy_classification(rng, d=16, c=4)
        model, rt = build_socket_backend(
            "pipemare", num_stages=4, num_microbatches=2,
            cfg=PipeMareConfig.t2_only(decay=0.5), dims=(16, 64, 64, 64, 4),
            deadlock_timeout=2.0, done_grace=5.0, overlap_boundary=False,
            net_options={"max_worker_restarts": 1},
        )
        with rt:
            pool, store = rt.pool, rt.plan.store
            assert rt.num_workers == 4

            def frame(w):  # same size for a version and for the velocities
                return self.frame_bytes([
                    a
                    for s in pool.driver_workers[w].read_stages
                    for a in store.weights(s, store.latest_version)
                ])

            def sent():
                return [conn.bytes_sent for conn in pool._weight_conns]

            rt.train_step(x[:16], y[:16])
            before = sent()
            rt.train_step(x[16:32], y[16:32])
            per_boundary = [b - a for a, b in zip(before, sent())]
            # One velocity frame (T2) and one version frame per worker.
            assert per_boundary == [2 * frame(w) for w in range(4)]
            model_bytes = sum(p.data.nbytes for p in model.parameters())
            assert 2 * model_bytes < sum(per_boundary) < 1.05 * 2 * model_bytes

            # Worker 2 dies in step 3 and is replaced in place: the fresh
            # mirror is filled with *its* stages' window, the survivors'
            # windows are left alone.
            before, old = sent(), pool._weight_conns[2]
            with pytest.raises(WorkerLostError):
                rt.train_step(x[32:48], y[32:48])
            fresh = pool._weight_conns[2]
            assert fresh is not old
            window = set(rt.plan.resolvable_versions()) & set(store.resident_versions(0))
            assert len(window) >= 2
            assert fresh.bytes_sent == (1 + len(window)) * frame(2)
            for w in (0, 1, 3):
                assert pool._weight_conns[w].bytes_sent == before[w]
            rt.train_step(x[32:48], y[32:48])  # the retry runs on it

    @pytest.mark.timeout(120)
    def test_dead_weight_connection_does_not_starve_the_survivors(self, rng):
        """Regression: the publish loop stopped at the first dead
        connection, so the workers after it never saw that version — and an
        in-place replacement refills the replaced worker's mirror alone,
        which left a survivor waiting out its version gate on the retry."""
        x, y = toy_classification(rng, d=16, c=4)
        _, rt = build_socket_backend(
            "pipemare", num_stages=4, num_microbatches=2,
            dims=(16, 64, 64, 64, 4), overlap_boundary=False,
        )
        with rt:
            pool = rt.pool
            rt.train_step(x[:16], y[:16])
            before = [conn.bytes_sent for conn in pool._weight_conns]
            pool._weight_conns[1].close()
            with pytest.raises(WorkerLostError, match="worker 1"):
                pool.publish_plan_state()
            assert pool.wedged
            sent = [c.bytes_sent - b for c, b in zip(pool._weight_conns, before)]
            assert sent[1] == 0 and all(sent[w] > 0 for w in (0, 2, 3))

    @pytest.mark.timeout(180)
    def test_borrowed_and_split_stages_reach_every_reader_bit_exact(self):
        """Tied embeddings: the projection worker *borrows* stage 0 from
        the embedding worker, and a 12-stage model on 4 workers splits
        stages between neighbours.  Each reader gets its whole read set —
        nothing else — and the run equals the simulator bit for bit."""
        workload = make_translation_workload(
            "wmt", batches_per_epoch=4, batch_size=16, num_microbatches=4, eval_size=8
        )
        kw = dict(
            seed=0, method="pipemare",
            pipemare=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5),
        )
        sim = workload.bundle(runtime="simulator", **kw)
        sock = workload.bundle(runtime="socket", **kw)
        rt = sock.executor
        with rt:
            pool, store = rt.pool, rt.plan.store
            reads = [w.read_stages for w in pool.driver_workers]
            assert any(set(r) - set(w.stages) for r, w in zip(reads, pool.driver_workers)), (
                "no worker borrows a stage: the workload lost its tied weights"
            )
            assert len({s for r in reads for s in r}) < sum(map(len, reads)), (
                "no stage has two readers"
            )
            before = None
            for _ in range(4):
                bt = workload.task.sample_batch(16)
                l1 = sim.executor.train_step((bt.src, bt.tgt_in), bt.tgt_out)
                l2 = rt.train_step((bt.src, bt.tgt_in), bt.tgt_out)
                assert l1 == l2
                rt.sync()
                sent = [conn.bytes_sent for conn in pool._weight_conns]
                if before is not None:
                    assert [b - a for a, b in zip(before, sent)] == [
                        2 * self.frame_bytes([
                            a for s in r for a in store.weights(s, store.latest_version)
                        ])
                        for r in reads
                    ]
                before = sent
            for p1, p2 in zip(sim.model.parameters(), sock.model.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)
