"""Fused wave programs: the compiled per-worker command blocks must change
*only* the scheduler hand-off granularity, never the computation.

Three layers of evidence:

* **Compiler unit tests** — :func:`compile_blocks` on synthetic
  :class:`WaveInfo` sequences pins down every boundary rule: fusion off
  yields singleton blocks, a rising gate (a wave requiring a *newer*
  version than the block entry gate) always breaks, flat/older gates fuse,
  a cross-worker producer gated newer than the entry breaks, and load
  dedup skips re-pointing only between equal signatures inside one block.
  The optimizer boundary needs no rule — programs are compiled per step,
  and the tiling test checks blocks partition exactly one step's waves.
* **Affine exactness** — the compiled ``max(0, t - d)`` gates are replayed
  against the resolver's per-wave ``wave_gate_version`` over a minibatch
  grid for every method/sync flag: each wave's gate matches its compiled
  delay exactly, and every block's entry gate dominates (is at least as
  new as) every member wave's requirement — the property that makes one
  entry wait equivalent to the per-wave gates.
* **Differential grids** — fused and unfused runtimes versus the
  sequential simulator, bit-for-bit on per-step losses and final weights,
  across methods × techniques × backends (thread / process / socket) ×
  overlap on/off × replicas ∈ {1, 2}; alongside, ``commands_per_step``
  must actually collapse (≥ 2× on the 4-stage MLP row — the tax the
  optimisation exists to kill).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PipeMareConfig
from repro.models import MLP
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.pipeline import (
    AsyncPipelineRuntime,
    PipelineExecutor,
    WaveCompileError,
    partition_model,
)
from repro.pipeline.executor import param_groups_from_stages
from repro.pipeline.waveprogram import (
    WaveInfo,
    _affine_delay,
    compile_blocks,
)

TIMEOUT = 15.0  # deadlock timeout for every concurrent runtime in this file


def toy_classification(rng, d=6, c=3, n=96):
    centers = rng.normal(size=(c, d)) * 2
    y = rng.integers(0, c, size=n)
    x = centers[y] + rng.normal(size=(n, d))
    return x, y


def build_mlp_backend(cls, method, *, num_stages=4, num_microbatches=2, cfg=None,
                      seed=7, dims=(6, 8, 8, 8, 3), **kw):
    model = MLP(list(dims), np.random.default_rng(seed))
    stages = partition_model(model, num_stages)
    opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
    backend = cls(
        model, CrossEntropyLoss(), opt, stages, num_microbatches, method,
        pipemare=cfg, **kw,
    )
    return model, backend


def assert_triple_equivalent(rng, method, *, steps=6, batch=16, cfg=None,
                             sim_kw=None, **kw):
    """Simulator vs fused vs unfused: identical per-step losses (as floats)
    and bitwise-identical final weights; fused must not issue more
    commands than unfused."""
    x, y = toy_classification(rng)
    m1, ex = build_mlp_backend(PipelineExecutor, method, cfg=cfg, **(sim_kw or {}))
    m2, fused = build_mlp_backend(
        AsyncPipelineRuntime, method, cfg=cfg, fuse_waves=True,
        deadlock_timeout=TIMEOUT, **kw,
    )
    m3, unfused = build_mlp_backend(
        AsyncPipelineRuntime, method, cfg=cfg, fuse_waves=False,
        deadlock_timeout=TIMEOUT, **kw,
    )
    with fused, unfused:
        for i in range(steps):
            lo = (i * batch) % (len(x) - batch + 1)
            b = slice(lo, lo + batch)
            l1 = ex.train_step(x[b], y[b])
            l2 = fused.train_step(x[b], y[b])
            l3 = unfused.train_step(x[b], y[b])
            assert l1 == l2, f"step {i}: simulator {l1!r} != fused {l2!r}"
            assert l1 == l3, f"step {i}: simulator {l1!r} != unfused {l3!r}"
        fused.sync()
        unfused.sync()
        assert unfused.stats.commands_per_step() >= fused.stats.commands_per_step()
        assert fused.stats.reports_per_step() == fused.stats.commands_per_step()
    for p1, p2, p3 in zip(m1.parameters(), m2.parameters(), m3.parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)
        np.testing.assert_array_equal(p1.data, p3.data)


def wave(op, j, gate=None, sig=None, producer=None):
    return WaveInfo(op=op, j=j, gate_delay=gate, load_sig=sig,
                    producer_gate_delay=producer)


class TestCompileBlocks:
    def test_unfused_yields_singleton_blocks(self):
        infos = [wave("F", 0, gate=3), wave("F", 1, gate=3), wave("B", 0, gate=3)]
        blocks = compile_blocks(infos, fuse=False)
        assert [b.ops for b in blocks] == [(("F", 0),), (("F", 1),), (("B", 0),)]
        assert all(b.loads == (True,) for b in blocks), (
            "singleton blocks must always load — the per-wave reference path"
        )

    def test_flat_gates_fuse_into_one_block(self):
        infos = [wave("F", j, gate=3) for j in range(4)]
        (block,) = compile_blocks(infos)
        assert block.ops == tuple(("F", j) for j in range(4))
        assert block.gate_delay == 3

    def test_rising_gate_breaks_block(self):
        """A wave gated *newer* (smaller delay => larger required version)
        than the entry gate must start a new block — fusing it under the
        entry gate would run it before its version exists."""
        infos = [wave("F", 0, gate=5), wave("F", 1, gate=5), wave("B", 0, gate=2)]
        blocks = compile_blocks(infos)
        assert [b.ops for b in blocks] == [((("F", 0)), ("F", 1)), (("B", 0),)]
        assert blocks[1].gate_delay == 2

    def test_falling_gate_fuses(self):
        """Older requirements (larger delay) ride under the entry gate: the
        entry version dominates them."""
        infos = [wave("F", 0, gate=2), wave("B", 0, gate=5)]
        (block,) = compile_blocks(infos)
        assert block.ops == (("F", 0), ("B", 0))
        assert block.gate_delay == 2

    def test_gated_wave_after_ungated_entry_breaks(self):
        """An ungated entry admits immediately; a gated wave cannot hide
        behind it."""
        infos = [wave("F", 0), wave("F", 1, gate=4)]
        blocks = compile_blocks(infos)
        assert [b.gate_delay for b in blocks] == [None, 4]

    def test_producer_gated_newer_breaks(self):
        """A cross-worker input whose producing wave is gated newer than
        this block's entry may not even be admitted upstream when the block
        starts — the consumer must re-gate."""
        infos = [
            wave("F", 0, gate=5, producer=6),  # producer older: fine
            wave("F", 1, gate=5, producer=3),  # producer newer: break
        ]
        blocks = compile_blocks(infos)
        assert [b.ops for b in blocks] == [(("F", 0),), (("F", 1),)]

    def test_load_dedup_only_between_equal_signatures(self):
        sig_a, sig_b = ("F", (1, 1)), ("F", (0, 0))
        infos = [
            wave("F", 0, gate=3, sig=sig_a),
            wave("F", 1, gate=3, sig=sig_a),  # same sig: skip reload
            wave("F", 2, gate=3, sig=sig_b),  # different sig: reload
            wave("F", 3, gate=3, sig=None),   # unknown sig: always reload
            wave("F", 4, gate=3, sig=sig_b),  # after unknown: reload
        ]
        (block,) = compile_blocks(infos)
        assert block.loads == (True, False, True, True, True)

    def test_first_wave_of_block_always_loads(self):
        """Dedup never crosses a block boundary — the previous block may be
        from an arbitrarily older point in the schedule."""
        sig = ("F", (2,))
        infos = [wave("F", 0, gate=5, sig=sig), wave("F", 1, gate=2, sig=sig)]
        blocks = compile_blocks(infos)
        assert len(blocks) == 2
        assert blocks[1].loads == (True,)

    def test_blocks_tile_the_program(self):
        infos = [wave("F", j, gate=3 + (j % 2), sig=None) for j in range(7)]
        for fuse in (True, False):
            blocks = compile_blocks(infos, fuse)
            flat = [op for b in blocks for op in b.ops]
            assert flat == [(i.op, i.j) for i in infos], (
                "fusion must reorder nothing and drop nothing"
            )


class TestAffineCompilation:
    def test_affine_delay_recovers_constants(self):
        for d in (0, 1, 7):
            assert _affine_delay(lambda t, d=d: max(0, t - d), 20, "x") == d

    def test_non_affine_gate_raises(self):
        with pytest.raises(WaveCompileError):
            _affine_delay(lambda t: t // 2, 20, "halved")
        with pytest.raises(WaveCompileError):
            _affine_delay(lambda t: max(0, t - 3) if t != 1 else 5, 20, "spiked")

    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    @pytest.mark.parametrize("sync", [True, False])
    def test_compiled_gates_match_resolver_exactly(self, rng, method, sync):
        """Every wave's compiled affine gate reproduces the resolver's
        per-wave gate on a minibatch grid, and every block's entry gate
        dominates its member waves — one entry wait is equivalent to the
        per-wave gates it replaces."""
        m, rt = build_mlp_backend(
            AsyncPipelineRuntime, method, num_microbatches=4,
            deadlock_timeout=TIMEOUT,
        )
        with rt:
            plan = rt.plan
            programs = rt.pool._programs[sync]
            horizon = 4 * plan.num_stages + plan.num_microbatches + 8
            for w, (program, compute) in enumerate(zip(programs, rt.workers)):
                stages = compute.read_stages
                for block in program.blocks:
                    for op, j in block.ops:
                        if not stages:
                            assert block.gate_delay is None
                            continue
                        for t in range(horizon + 1):
                            need = plan.wave_gate_version(op, stages, t, j, sync)
                            entry = (
                                0 if block.gate_delay is None
                                else max(0, t - block.gate_delay)
                            )
                            assert entry >= need, (
                                f"worker {w} block entry gate admits wave "
                                f"({op}, {j}) at t={t} before its version: "
                                f"entry={entry} < required={need}"
                            )
                    # the entry gate is the *first* wave's own gate, so the
                    # block never waits on a newer version than the unfused
                    # path would at the same point in the schedule
                    op0, j0 = block.ops[0]
                    if stages:
                        for t in range(horizon + 1):
                            need = plan.wave_gate_version(op0, stages, t, j0, sync)
                            assert max(0, t - block.gate_delay) == need

    def test_blocks_tile_each_step_program(self, rng):
        """No block spans the optimizer boundary: programs are compiled per
        step and the blocks partition exactly that step's waves, fused or
        not."""
        m, rt = build_mlp_backend(
            AsyncPipelineRuntime, "pipemare", num_microbatches=4,
            deadlock_timeout=TIMEOUT,
        )
        with rt:
            from repro.pipeline.worker import _build_programs

            raw = _build_programs(
                rt.plan.method, rt.num_workers, rt.plan.num_microbatches,
                rt.plan.recompute_segment is not None,
            )
            for sync in (True, False):
                for program, waves in zip(rt.pool._programs[sync], raw[sync]):
                    flat = [op for b in program.blocks for op in b.ops]
                    assert flat == list(waves)
                    assert program.num_waves == len(waves)


class TestCommandReduction:
    @pytest.mark.timeout(120)
    def test_mlp_4stage_commands_drop_at_least_2x(self, rng):
        """The acceptance row: 4-stage MLP, 8 microbatches, thread backend
        — fusion must cut scheduler commands per step by >= 2x (it actually
        reaches the per-step floor: one block per worker per direction)."""
        x, y = toy_classification(rng)
        per_step = {}
        for fuse in (True, False):
            m, rt = build_mlp_backend(
                AsyncPipelineRuntime, "pipemare", num_microbatches=8,
                fuse_waves=fuse, deadlock_timeout=TIMEOUT,
            )
            with rt:
                for i in range(3):
                    rt.train_step(x[:64], y[:64])
                rt.sync()
                per_step[fuse] = rt.stats.commands_per_step()
        assert per_step[False] == 4 * 8 * 2  # one command per wave
        assert per_step[True] * 2 <= per_step[False], (
            f"fusion reduced commands only {per_step[False]}->{per_step[True]}"
        )


class TestDifferentialThread:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("method", ["gpipe", "pipedream", "pipemare"])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_methods_match_bitwise(self, rng, method, overlap):
        assert_triple_equivalent(rng, method, overlap_boundary=overlap)

    TECHNIQUES = {
        "t1": dict(cfg=PipeMareConfig.t1_only(anneal_steps=50), kw={}),
        "t2": dict(cfg=PipeMareConfig.t2_only(decay=0.5), kw={}),
        "t1t2": dict(cfg=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5), kw={}),
        "t3": dict(
            cfg=PipeMareConfig.full(anneal_steps=50, warmup_steps=2, decay=0.5),
            kw={},
        ),
        "recompute": dict(
            cfg=PipeMareConfig.t2_only(decay=0.5), kw={"recompute_segment": 2}
        ),
    }

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("technique", sorted(TECHNIQUES))
    @pytest.mark.parametrize("overlap", [True, False])
    def test_pipemare_techniques_match_bitwise(self, rng, technique, overlap):
        spec = self.TECHNIQUES[technique]
        assert_triple_equivalent(
            rng, "pipemare", steps=8, cfg=spec["cfg"],
            overlap_boundary=overlap, sim_kw=dict(spec["kw"]), **spec["kw"],
        )

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_replica_groups_match_bitwise(self, rng, replicas):
        assert_triple_equivalent(
            rng, "pipemare", num_replicas=replicas,
            sim_kw={"num_replicas": replicas}, batch=24,
        )


class TestDifferentialProcess:
    @pytest.mark.timeout(240)
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_process_matches_bitwise(self, rng, replicas):
        assert_triple_equivalent(
            rng, "pipemare", steps=4, batch=24,
            cfg=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5),
            backend="process", num_replicas=replicas,
            sim_kw={"num_replicas": replicas},
        )


@pytest.mark.net
class TestDifferentialSocket:
    @pytest.mark.timeout(240)
    @pytest.mark.parametrize("technique", ["plain", "t1t2"])
    def test_socket_matches_bitwise(self, rng, technique):
        cfg = (
            None if technique == "plain"
            else PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5)
        )
        assert_triple_equivalent(
            rng, "pipemare", steps=4, cfg=cfg, backend="socket",
        )
