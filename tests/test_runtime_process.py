"""Differential tests: the multi-process shared-memory runtime must be
bit-for-bit identical to the sequential simulator.

Same contract as ``tests/test_runtime_equivalence.py`` for the thread
backend, plus the process-specific machinery: spec-based worker
construction (nothing live crosses the fork/spawn boundary), the shared
weight mirror, the gradient mailbox, persistent-state (BatchNorm running
stats) sync back to the driver, and the error/deadlock paths.
"""

from __future__ import annotations

import gc
import glob
import time

import numpy as np
import pytest

from repro.core import PipeMareConfig
from repro.models import MLP
from repro.models.resnet import resnet_tiny
from repro.nn import CrossEntropyLoss, GELU, Embedding, Linear, Sequential
from repro.optim import SGD, AdamW
from repro.pipeline import (
    AsyncPipelineRuntime,
    ModelSpec,
    PipelineDeadlockError,
    PipelineExecutor,
    RuntimeWedgedError,
    make_backend,
    partition_model,
)
from repro.pipeline.executor import param_groups_from_stages

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


def build_process_backend(method, **kw):
    kw.setdefault("deadlock_timeout", TIMEOUT)
    return build_mlp_backend(AsyncPipelineRuntime, method, backend="process", **kw)


def assert_equivalent(m1, ex, m2, rt, x, y, steps=6, batch=16):
    for i in range(steps):
        b = slice((i * batch) % (len(x) - batch + 1), (i * batch) % (len(x) - batch + 1) + batch)
        l1 = ex.train_step(x[b], y[b])
        l2 = rt.train_step(x[b], y[b])
        assert l1 == l2, f"step {i}: simulator loss {l1!r} != process loss {l2!r}"
    if hasattr(rt, "sync"):
        rt.sync()  # settle a pending overlapped boundary before comparing
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)


# The same differential grid the thread backend must pass:
# method × stages × microbatches × technique/recompute.
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
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    @pytest.mark.parametrize("num_stages,num_microbatches", [(2, 2), (4, 2), (4, 4), (3, 4)])
    def test_methods_match_bitwise(self, rng, method, num_stages, num_microbatches):
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, method,
            num_stages=num_stages, num_microbatches=num_microbatches,
        )
        m2, rt = build_process_backend(
            method, num_stages=num_stages, num_microbatches=num_microbatches,
        )
        with rt:
            assert rt.num_workers == num_stages
            assert rt.pool.kind == "process"
            assert_equivalent(m1, ex, m2, rt, x, y)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    def test_pipemare_techniques_match_bitwise(self, rng, technique):
        x, y = toy_classification(rng)
        spec = TECHNIQUES[technique]
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2,
            cfg=spec["cfg"], **spec["kw"],
        )
        m2, rt = build_process_backend(
            "pipemare", num_stages=4, num_microbatches=2,
            cfg=spec["cfg"], **spec["kw"],
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y, steps=8)

    @pytest.mark.timeout(120)
    def test_ragged_microbatches_match(self, rng):
        """10 samples into 4 microbatches: the per-microbatch grad weighting
        must agree across backends."""
        x, y = toy_classification(rng, n=10)
        m1, ex = build_mlp_backend(PipelineExecutor, "pipemare", num_stages=4, num_microbatches=4)
        m2, rt = build_process_backend("pipemare", num_stages=4, num_microbatches=4)
        with rt:
            for _ in range(4):
                assert ex.train_step(x, y) == rt.train_step(x, y)
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.timeout(120)
    def test_adamw_backend_matches(self, rng):
        """Optimizer state (moments) must evolve identically too — the
        optimizer consumes mailbox-copied gradients on the driver."""
        x, y = toy_classification(rng)
        models, backends = [], []
        for cls, kw in (
            (PipelineExecutor, {}),
            (AsyncPipelineRuntime, {"backend": "process", "deadlock_timeout": TIMEOUT}),
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


class TestModelsAndState:
    @pytest.mark.timeout(180)
    def test_resnet_batchnorm_matches_and_syncs_running_stats(self, rng):
        """ResNet at stages=8 splits residual blocks across stage boundaries
        (fewer workers than stages), BatchNorm emits transposed NCHW
        intermediates (the transport must preserve memory layout for bit
        equality), and its running statistics mutate inside the workers —
        they must land back in the driver's model for evaluation."""
        x = rng.normal(size=(16, 3, 8, 8))
        y = rng.integers(0, 10, size=16)
        models, backends = [], []
        for cls, kw in (
            (PipelineExecutor, {}),
            (AsyncPipelineRuntime, {"backend": "process", "deadlock_timeout": TIMEOUT}),
        ):
            model = resnet_tiny(np.random.default_rng(1), norm="batch")
            stages = partition_model(model, 8)
            opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
            backends.append(cls(model, CrossEntropyLoss(), opt, stages, 4, "pipemare", **kw))
            models.append(model)
        ex, rt = backends
        with rt:
            assert rt.num_workers < 8
            for _ in range(3):
                assert ex.train_step(x, y) == rt.train_step(x, y)
            rt.sync()
            for p1, p2 in zip(models[0].parameters(), models[1].parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)
            for m_sim, m_proc in zip(models[0].modules(), models[1].modules()):
                for name, value in m_sim.__dict__.items():
                    if (
                        not name.startswith("_")
                        and isinstance(value, np.ndarray)
                        and name not in m_sim._parameters
                    ):
                        np.testing.assert_array_equal(
                            value, m_proc.__dict__[name],
                            err_msg=f"{type(m_sim).__name__}.{name} not synced",
                        )

    @pytest.mark.timeout(180)
    def test_factory_spec_workers_seeded_with_driver_persistent_state(self, rng):
        """A factory-string spec rebuilds a *fresh* replica in each worker;
        its pristine BatchNorm running stats must be seeded from the
        driver's (possibly already-evolved) state at startup, not allowed to
        clobber them on the first sync back."""
        x = rng.normal(size=(16, 3, 8, 8))
        y = rng.integers(0, 10, size=16)
        models, backends = [], []
        for which in ("sim", "proc"):
            model = resnet_tiny(np.random.default_rng(1), norm="batch")
            model(x)  # evolve running stats before the runtime exists
            stages = partition_model(model, 4)
            opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
            if which == "sim":
                be = PipelineExecutor(model, CrossEntropyLoss(), opt, stages, 4, "pipemare")
            else:
                spec = ModelSpec(
                    "repro.models.resnet:resnet_tiny",
                    args=(np.random.default_rng(1),), kwargs={"norm": "batch"},
                    num_stages=4,
                )
                be = AsyncPipelineRuntime(
                    model, CrossEntropyLoss(), opt, stages, 4, "pipemare",
                    backend="process", deadlock_timeout=TIMEOUT, model_spec=spec,
                )
            models.append(model)
            backends.append(be)
        ex, rt = backends
        with rt:
            for _ in range(2):
                assert ex.train_step(x, y) == rt.train_step(x, y)
            rt.sync()  # persistent state syncs back when a step is collected
            for m_sim, m_proc in zip(models[0].modules(), models[1].modules()):
                for name, value in m_sim.__dict__.items():
                    if (
                        not name.startswith("_")
                        and isinstance(value, np.ndarray)
                        and name not in m_sim._parameters
                    ):
                        np.testing.assert_array_equal(
                            value, m_proc.__dict__[name], err_msg=name
                        )

    @pytest.mark.timeout(120)
    def test_embedding_stack_cache_matches(self, rng):
        """Integer token inputs cross the rings; Embedding's in-place cache
        mutation exercises the snapshot/restore machinery inside a worker
        process."""
        vocab, d = 11, 8
        x = rng.integers(0, vocab, size=(48,))
        y = rng.integers(0, 3, size=48)
        models, backends = [], []
        for cls, kw in (
            (PipelineExecutor, {}),
            (AsyncPipelineRuntime, {"backend": "process", "deadlock_timeout": TIMEOUT}),
        ):
            r = np.random.default_rng(13)
            model = Sequential(
                Embedding(vocab, d, r), Linear(d, d, r), GELU(), Linear(d, 3, r)
            )
            stages = partition_model(model, 3)
            opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
            backends.append(cls(model, CrossEntropyLoss(), opt, stages, 4, "pipemare", **kw))
            models.append(model)
        ex, rt = backends
        with rt:
            for i in range(5):
                b = slice(i * 8, i * 8 + 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])
            rt.sync()
            for p1, p2 in zip(models[0].parameters(), models[1].parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)


class TestSpecConstruction:
    @pytest.mark.timeout(120)
    def test_string_factory_spec(self, rng):
        """Workers rebuild the model from an import-path factory spec — no
        live objects cross the process boundary."""
        x, y = toy_classification(rng)
        spec = ModelSpec(
            "repro.models.mlp:MLP",
            args=([6, 8, 8, 8, 3], np.random.default_rng(7)),
            num_stages=4,
        )
        m1, ex = build_mlp_backend(PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2)
        m2, rt = build_process_backend(
            "pipemare", num_stages=4, num_microbatches=2, model_spec=spec,
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y, steps=4)

    @pytest.mark.timeout(240)
    def test_spawn_start_method(self, rng):
        """The spec machinery must survive a cold interpreter: spawn ships
        only picklable state and the worker imports/rebuilds everything.
        That includes the doorbells — a spawned worker inherits nothing, so
        the ring and mirror semaphores reach it only through its ``Process``
        args; three workers give the middle one a bell on every side, T2
        puts the version gate on the backward path.  Under spawn the
        semaphores are *named*: none may outlive ``close()``."""
        x, y = toy_classification(rng)
        cfg = PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5)
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=3, num_microbatches=2, cfg=cfg
        )
        named = set(glob.glob("/dev/shm/sem.mp-*"))
        m2, rt = build_process_backend(
            "pipemare", num_stages=3, num_microbatches=2, cfg=cfg,
            start_method="spawn", deadlock_timeout=60.0,
        )
        with rt:
            assert set(glob.glob("/dev/shm/sem.mp-*")) - named, "spawn doorbells are named"
            assert_equivalent(m1, ex, m2, rt, x, y, steps=4)
        del rt
        gc.collect()
        assert not set(glob.glob("/dev/shm/sem.mp-*")) - named

    @pytest.mark.timeout(120)
    def test_mismatched_spec_rejected_at_construction(self, rng):
        """A spec that rebuilds a different partition than the driver's must
        fail loudly at startup, not train silently wrong."""
        spec = ModelSpec(
            "repro.models.mlp:MLP",
            args=([6, 8, 3], np.random.default_rng(7)),  # wrong architecture
            num_stages=2,
        )
        with pytest.raises(Exception, match="partition|names|differ"):
            build_process_backend(
                "pipemare", num_stages=2, num_microbatches=2,
                dims=(6, 8, 8, 3), model_spec=spec,
            )


class TestRuntimeContract:
    @pytest.mark.timeout(120)
    def test_checkpoint_roundtrip_from_simulator(self, rng):
        """A simulator checkpoint restored into the process runtime resyncs
        the shared mirror (version window + velocities) and continues the
        exact same trajectory."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2)
        for i in range(3):
            ex.train_step(x[i * 16:(i + 1) * 16], y[i * 16:(i + 1) * 16])
        state = ex.state_dict()
        opt_state = ex.optimizer.state_dict()

        m2, rt = build_process_backend("pipemare", num_stages=4, num_microbatches=2)
        with rt:
            m2.load_state_dict(m1.state_dict())
            rt.optimizer.load_state_dict(opt_state)
            rt.load_state_dict(state)
            assert rt.t == ex.t
            for i in range(3, 6):
                b = slice((i * 16) % 80, (i * 16) % 80 + 16)
                assert ex.train_step(x[b], y[b]) == rt.train_step(x[b], y[b])

    @pytest.mark.timeout(120)
    def test_latest_weights_live_after_step(self, rng):
        """Eval between steps must see version t on the driver — the
        optimizer and weight store live driver-side, exactly as with the
        thread backend."""
        x, y = toy_classification(rng)
        m, rt = build_process_backend("pipemare", num_stages=4, num_microbatches=2)
        with rt:
            rt.train_step(x[:16], y[:16])
            rt.sync()  # with the overlapped boundary, eval points read via sync()
            for s, stage in enumerate(rt.stages):
                for p, stored in zip(stage.params, rt.store.weights(s, rt.store.latest_version)):
                    assert p.data is stored

    @pytest.mark.timeout(120)
    def test_make_backend_dispatch(self, rng):
        x, y = toy_classification(rng)
        model = MLP([6, 8, 3], np.random.default_rng(0))
        stages = partition_model(model, 2)
        opt = SGD(param_groups_from_stages(stages), lr=0.05)
        rt = make_backend(
            "process", model, CrossEntropyLoss(), opt, stages, 2, "pipemare",
            deadlock_timeout=TIMEOUT,
        )
        try:
            assert isinstance(rt, AsyncPipelineRuntime)
            assert rt.backend == "process"
            rt.train_step(x[:16], y[:16])
        finally:
            rt.close()

    @pytest.mark.timeout(120)
    def test_closed_runtime_rejects_steps(self, rng):
        x, y = toy_classification(rng)
        m, rt = build_process_backend("pipemare", num_stages=2, num_microbatches=2)
        rt.close()
        rt.close()  # idempotent
        with pytest.raises(RuntimeError):
            rt.train_step(x[:16], y[:16])


class TestErrorPaths:
    @pytest.mark.timeout(120)
    def test_worker_exception_restores_latest_weights_and_stays_usable(self, rng):
        """A worker exception mid-step must leave the driver's parameters on
        the latest version, commit no stats, and keep the runtime usable —
        the next good step still matches the simulator bit for bit."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2)
        m2, rt = build_process_backend("pipemare", num_stages=4, num_microbatches=2)
        with rt:
            assert ex.train_step(x[:16], y[:16]) == rt.train_step(x[:16], y[:16])
            with pytest.raises(Exception):
                rt.train_step(x[:16, :4], y[:16])  # wrong feature dim
            for s, stage in enumerate(rt.stages):
                for p, stored in zip(
                    stage.params, rt.store.weights(s, rt.store.latest_version)
                ):
                    assert p.data is stored, "error left delayed weights live"
            assert rt.stats.steps == 1, "aborted step must not commit stats"
            assert ex.train_step(x[16:32], y[16:32]) == rt.train_step(x[16:32], y[16:32])
            rt.sync()
            for p1, p2 in zip(m1.parameters(), m2.parameters()):
                np.testing.assert_array_equal(p1.data, p2.data)

    @pytest.mark.timeout(120)
    def test_killed_worker_wedges_and_close_joins(self, rng):
        """A worker killed between steps surfaces as PipelineDeadlockError,
        the runtime wedges explicitly, and close() returns promptly."""
        x, y = toy_classification(rng)
        m, rt = build_process_backend(
            "pipemare", num_stages=2, num_microbatches=2, done_grace=2.0,
        )
        rt.train_step(x[:16], y[:16])
        rt.pool._procs[1].terminate()
        rt.pool._procs[1].join(timeout=5.0)
        with pytest.raises(PipelineDeadlockError):
            rt.train_step(x[:16], y[:16])
        with pytest.raises(RuntimeWedgedError, match="wedged"):
            rt.train_step(x[:16], y[:16])
        t0 = time.perf_counter()
        rt.close()
        assert time.perf_counter() - t0 < 10.0

    @pytest.mark.timeout(120)
    def test_training_dropout_rejected(self, rng):
        from repro.nn import Dropout

        model = Sequential(
            Linear(6, 8, np.random.default_rng(0)),
            Dropout(0.5, np.random.default_rng(1)),
            Linear(8, 3, np.random.default_rng(2)),
        )
        stages = partition_model(model, 2)
        opt = SGD(param_groups_from_stages(stages), lr=0.05)
        with pytest.raises(ValueError, match="Dropout"):
            AsyncPipelineRuntime(
                model, CrossEntropyLoss(), opt, stages, 2, "pipemare",
                backend="process",
            )
