"""Arena-reuse safety: recycled slabs must never leak stale values.

Most kernels in ``repro.nn`` allocate their activation-sized arrays through
:func:`repro.nn.arena.empty` (convolution's unfolded buffers deliberately do
not — see ``TestArenaFootprint``).  A slab recycled too early — while a
same-step backward cache, a cross-worker hand-off, or a recompute
snapshot still references it — would silently corrupt the computation.
``REPRO_ARENA_DEBUG=1`` turns that failure mode loud: every recycled
slab is poison-filled (NaN for floats) before re-entering the free list,
so any read-after-recycle becomes a NaN loss or a bitwise divergence
from the arena-free simulator.

This module runs the differential grid under the poison toggle: if
generation lifetimes (``Arena.depth`` vs the pool's two-steps-in-flight
window) were ever wrong, these tests fail with NaNs instead of passing
on luck.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PipeMareConfig
from repro.models.resnet import resnet_tiny
from repro.nn import arena
from repro.nn.losses import CrossEntropyLoss
from repro.optim import SGD
from repro.pipeline import AsyncPipelineRuntime, PipelineExecutor, partition_model
from repro.pipeline.executor import param_groups_from_stages

from test_runtime_equivalence import (
    assert_equivalent,
    build_mlp_backend,
    toy_classification,
)


@pytest.fixture
def poison(monkeypatch):
    """Poison-fill recycled slabs in every arena built below (worker
    threads read the env var when they construct their arena; spawned
    worker processes inherit it)."""
    monkeypatch.setenv("REPRO_ARENA_DEBUG", "1")


class TestArenaUnit:
    def test_empty_outside_program_raises(self):
        a = arena.Arena()
        with pytest.raises(RuntimeError, match="begin_program"):
            a.empty((4,))

    def test_module_level_empty_falls_back_without_arena(self):
        assert arena.current() is None
        out = arena.empty((3, 2))
        assert out.shape == (3, 2) and out.dtype == np.float64

    def test_generation_recycling_honours_depth(self):
        a = arena.Arena(depth=2, debug=False)
        a.begin_program(1)
        s1 = a.empty((8,))
        a.begin_program(2)
        assert a.recycled == 0, "gen 1 recycled one step early"
        a.begin_program(3)
        assert a.recycled == 1
        s3 = a.empty((8,))
        assert s3 is s1, "matching-shape slab should be reused, not grown"
        assert a.slabs == 1

    def test_debug_poisons_recycled_slabs(self):
        a = arena.Arena(depth=1, debug=True)
        a.begin_program(1)
        s = a.empty((4,))
        s[...] = 7.0
        a.begin_program(2)
        s2 = a.empty((4,))
        assert s2 is s
        assert np.isnan(s2).all(), "recycled float slab must be NaN-poisoned"

    def test_resident_bytes_counts_free_and_live(self):
        a = arena.Arena(depth=1, debug=False)
        a.begin_program(1)
        a.empty((16,))          # live
        a.begin_program(2)      # now free
        a.empty((4,), np.int64)  # live
        assert a.resident_bytes() == 16 * 8 + 4 * 8

    def test_installed_arena_serves_module_level_empty(self):
        a = arena.Arena(debug=False)
        arena.set_current(a)
        try:
            a.begin_program(0)
            out = arena.empty((5,))
            assert a.slabs == 1 and out.shape == (5,)
        finally:
            arena.set_current(None)


ARENA_GRID = {
    "plain": dict(cfg=None, kw={}),
    "t1t2": dict(cfg=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5), kw={}),
    "t3": dict(
        cfg=PipeMareConfig.full(anneal_steps=50, warmup_steps=2, decay=0.5), kw={}
    ),
    "recompute": dict(
        cfg=PipeMareConfig.t2_only(decay=0.5), kw={"recompute_segment": 2}
    ),
}


class TestPoisonedDifferentialGrid:
    @pytest.mark.parametrize("technique", sorted(ARENA_GRID))
    def test_thread_runtime_matches_simulator_under_poison(
        self, rng, poison, technique
    ):
        x, y = toy_classification(rng)
        spec = ARENA_GRID[technique]
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2,
            cfg=spec["cfg"], **spec["kw"],
        )
        m2, rt = build_mlp_backend(
            AsyncPipelineRuntime, "pipemare", num_stages=4, num_microbatches=2,
            cfg=spec["cfg"], **spec["kw"],
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y, steps=8)

    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    def test_methods_match_under_poison(self, rng, poison, method):
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, method, num_stages=3, num_microbatches=4,
        )
        m2, rt = build_mlp_backend(
            AsyncPipelineRuntime, method, num_stages=3, num_microbatches=4,
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y)

    @pytest.mark.timeout(120)
    def test_process_runtime_matches_simulator_under_poison(self, rng, poison):
        """The process backend adds the in-ring compute path (slabs that
        live in shared-memory slots rather than the arena) — the poison
        grid must cover it too."""
        x, y = toy_classification(rng)
        m1, ex = build_mlp_backend(
            PipelineExecutor, "pipemare", num_stages=4, num_microbatches=2,
        )
        m2, rt = build_mlp_backend(
            AsyncPipelineRuntime, "pipemare", num_stages=4, num_microbatches=2,
            backend="process", deadlock_timeout=60.0,
        )
        with rt:
            assert_equivalent(m1, ex, m2, rt, x, y, steps=4)


class TestArenaFootprint:
    def test_resnet_arena_reaches_steady_state_and_stays_small(self, rng):
        """An arena never reuses a slab inside a step, so what a kernel
        allocates through it is resident for two generations.  Conv's
        unfolded buffers (9x an activation each, per microbatch, per conv)
        are therefore plainly allocated; routing ``cols`` alone through
        ``arena.empty`` takes worker 0 below from ~51x to ~130x
        (N x activation bytes).  This pins both properties in tier-1, ahead
        of the benchmark's ``peak_rss_mb`` gate."""
        n_micro, batch = 4, 16
        x = rng.normal(size=(batch, 3, 8, 8))
        y = rng.integers(0, 10, size=batch)
        model = resnet_tiny(np.random.default_rng(1))
        stages = partition_model(model, 3)
        opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
        # widest activation of one microbatch: (batch/N, 8, 8, 8) float64
        budget = 80 * n_micro * (batch // n_micro) * 8 * 8 * 8 * 8
        slabs = []
        with AsyncPipelineRuntime(
            model, CrossEntropyLoss(), opt, stages, n_micro, "pipemare"
        ) as rt:
            for _ in range(6):
                rt.train_step(x, y)
                rt.sync()
                arenas = [w._arena for w in rt.pool._workers]
                slabs.append([a.slabs for a in arenas])
            resident = [a.resident_bytes() for a in arenas]
        assert slabs[2] == slabs[3] == slabs[4] == slabs[5], slabs
        assert all(s > 0 for s in slabs[-1])
        assert max(resident) < budget, (resident, budget)
