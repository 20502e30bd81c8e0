"""Executor semantics tests — the core correctness evidence for the
pipeline simulator:

* GPipe mode is bit-identical to sequential training;
* PipeMare's empirical divergence boundary on a quadratic matches Lemma 1;
* T2 executor dynamics match the hand-rolled recurrence on a deep linear
  net (where fwd/bkwd discrepancy genuinely enters);
* version arithmetic, warmup switching, recompute paths.
"""

import numpy as np
import pytest

from repro.core import PipeMareConfig
from repro.models import MLP, LinearRegressionModel
from repro.nn import CrossEntropyLoss, Linear, Module, MSELoss
from repro.optim import SGD
from repro.pipeline import Method, PipelineExecutor, partition_model
from repro.pipeline.executor import param_groups_from_stages
from repro.theory import lemma1_alpha_max
from repro.train import SequentialTrainer


def toy_classification(rng, d=6, c=3, n=96):
    centers = rng.normal(size=(c, d)) * 2
    y = rng.integers(0, c, size=n)
    x = centers[y] + rng.normal(size=(n, d))
    return x, y


def make_executor(model, method, num_microbatches=2, lr=0.05, momentum=0.0,
                  pipemare=None, num_stages=None, **kw):
    loss = CrossEntropyLoss()
    stages = partition_model(model, num_stages)
    opt = SGD(param_groups_from_stages(stages), lr=lr, momentum=momentum)
    ex = PipelineExecutor(
        model, loss, opt, stages, num_microbatches, method, pipemare=pipemare, **kw
    )
    return ex, loss


class TestGPipeEquivalence:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_gpipe_equals_sequential_bitwise(self, rng, momentum):
        x, y = toy_classification(rng)
        m1 = MLP([6, 8, 3], np.random.default_rng(7))
        m2 = MLP([6, 8, 3], np.random.default_rng(7))
        ex, _ = make_executor(m1, "gpipe", num_microbatches=4, momentum=momentum)
        seq = SequentialTrainer(
            m2, CrossEntropyLoss(), SGD(m2.parameters(), lr=0.05, momentum=momentum),
            num_microbatches=4,
        )
        for i in range(8):
            b = slice(i * 12, (i + 1) * 12)
            l1 = ex.train_step(x[b], y[b])
            l2 = seq.train_step(x[b], y[b])
            assert l1 == pytest.approx(l2, abs=1e-14)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_pipemare_with_zero_delay_equals_gpipe(self, rng):
        """A 1-stage, 1-microbatch PipeMare pipe still has τ_fwd=1 (itself);
        but with GPipe method the executor must be delay-free."""
        x, y = toy_classification(rng)
        m1 = MLP([6, 8, 3], np.random.default_rng(3))
        ex, _ = make_executor(m1, "gpipe", num_microbatches=1)
        ex.train_step(x[:12], y[:12])  # smoke: no store/version errors


class TestStabilityBoundary:
    def test_boundary_matches_lemma1_tau1(self, rng):
        """P=1, N=1 ⇒ τ_fwd = 1 exactly; the executor's empirical divergence
        boundary must sit at (2/λ)sin(π/6)."""
        n, d = 48, 3
        x = rng.normal(size=(n, d))
        y_reg = x @ rng.normal(size=d)
        lam = float(np.linalg.eigvalsh(2 * x.T @ x / n)[-1])

        def diverges(alpha):
            m = LinearRegressionModel(d, np.random.default_rng(1))
            loss = MSELoss()
            stages = partition_model(m)
            opt = SGD(param_groups_from_stages(stages), lr=alpha)
            ex = PipelineExecutor(m, loss, opt, stages, 1, "pipemare")
            val = np.inf
            for _ in range(300):
                val = ex.train_step(x, y_reg)
                if not np.isfinite(val) or val > 1e8:
                    return True
            return val > 1.0

        lo, hi = 1e-3, 4.0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if diverges(mid):
                hi = mid
            else:
                lo = mid
        assert lo == pytest.approx(lemma1_alpha_max(1, lam), rel=0.02)


class TestVersioningSemantics:
    def test_forward_uses_stale_backward_uses_fresh(self, rng):
        """Direct check of the PipeMare contract on a linear model:
        the gradient after t steps equals λ(u_fwd − w*) with u_fwd = w_{t−1}
        for P=1, N=1 (τ=1)."""
        n, d = 32, 1
        x = rng.normal(size=(n, d))
        w_star = 1.3
        y = x[:, 0] * w_star
        m = LinearRegressionModel(d, np.random.default_rng(5))
        loss = MSELoss()
        stages = partition_model(m)
        opt = SGD(param_groups_from_stages(stages), lr=0.1)
        ex = PipelineExecutor(m, loss, opt, stages, 1, "pipemare")
        lam = 2 * float(np.mean(x**2))
        w_hist = [float(m.linear.weight.data[0, 0])]
        for t in range(6):
            ex.train_step(x, y)
            w_hist.append(float(m.linear.weight.data[0, 0]))
        # replay: w_{t+1} = w_t − α λ (w_{t−1} − w*)
        for t in range(1, 6):
            expected = w_hist[t] - 0.1 * lam * (w_hist[t - 1] - w_star)
            assert w_hist[t + 1] == pytest.approx(expected, abs=1e-12)

    def test_pipedream_differs_from_pipemare(self, rng):
        """Weight stashing (τ_bkwd = τ_fwd) must produce different dynamics
        from PipeMare (τ_bkwd = 0) on a multi-stage model."""
        x, y = toy_classification(rng)
        outs = {}
        for method in ("pipedream", "pipemare"):
            m = MLP([6, 8, 8, 3], np.random.default_rng(7))
            ex, _ = make_executor(m, method, num_microbatches=2, lr=0.05)
            for i in range(6):
                b = slice(i * 16, (i + 1) * 16)
                ex.train_step(x[b], y[b])
            outs[method] = np.concatenate([p.data.ravel() for p in m.parameters()])
        assert np.abs(outs["pipedream"] - outs["pipemare"]).max() > 1e-8

    def test_latest_weights_restored_after_step(self, rng):
        x, y = toy_classification(rng)
        m = MLP([6, 8, 3], np.random.default_rng(7))
        ex, _ = make_executor(m, "pipemare", num_microbatches=2)
        ex.train_step(x[:16], y[:16])
        for s, stage in enumerate(ex.stages):
            for p, stored in zip(stage.params, ex.store.weights(s, ex.store.latest_version)):
                assert p.data is stored

    def test_minibatch_smaller_than_microbatches_rejected(self, rng):
        m = MLP([6, 8, 3], np.random.default_rng(7))
        ex, _ = make_executor(m, "pipemare", num_microbatches=8)
        with pytest.raises(ValueError):
            ex.train_step(np.zeros((4, 6)), np.zeros(4, dtype=int))

    def test_optimizer_group_mismatch_rejected(self, rng):
        m = MLP([6, 8, 3], np.random.default_rng(7))
        stages = partition_model(m)
        opt = SGD(m.parameters(), lr=0.1)  # single group
        with pytest.raises(ValueError):
            PipelineExecutor(m, CrossEntropyLoss(), opt, stages, 2, "pipemare")

    def test_ragged_microbatches_weighted_exactly(self, rng):
        """Gradient with unequal microbatch sizes must equal the full-batch
        gradient in synchronous mode."""
        x, y = toy_classification(rng, n=10)  # 10 samples into 4 microbatches
        m1 = MLP([6, 8, 3], np.random.default_rng(7))
        m2 = MLP([6, 8, 3], np.random.default_rng(7))
        ex, _ = make_executor(m1, "gpipe", num_microbatches=4, lr=0.05)
        seq = SequentialTrainer(
            m2, CrossEntropyLoss(), SGD(m2.parameters(), lr=0.05), num_microbatches=1
        )
        ex.train_step(x, y)
        seq.train_step(x, y)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=1e-12)


class TestT2Semantics:
    def test_t2_matches_handrolled_deep_linear(self, rng):
        """Executor with T2 on y = w2·w1·x must follow the exact recurrence
        with corrected backward weights (machine-precision check)."""
        n = 16
        x = rng.normal(size=(n, 1))
        y = 0.8 * x[:, 0]
        alpha, decay = 0.05, 0.3

        class DeepLinear(Module):
            def __init__(self, r):
                super().__init__()
                self.l1 = Linear(1, 1, r, bias=False)
                self.l2 = Linear(1, 1, r, bias=False)

            def forward(self, xx):
                return self.l2(self.l1(xx))[:, 0]

            def backward(self, g):
                return self.l1.backward(self.l2.backward(g[:, None]))

        m = DeepLinear(np.random.default_rng(3))
        w1_0 = float(m.l1.weight.data[0, 0])
        w2_0 = float(m.l2.weight.data[0, 0])
        loss = MSELoss()
        stages = partition_model(m)
        opt = SGD(param_groups_from_stages(stages), lr=alpha)
        ex = PipelineExecutor(
            m, loss, opt, stages, 1, "pipemare",
            pipemare=PipeMareConfig.t2_only(decay=decay),
        )
        traj = [(w1_0, w2_0)]
        for _ in range(20):
            ex.train_step(x, y)
            traj.append((float(m.l1.weight.data[0, 0]), float(m.l2.weight.data[0, 0])))

        mx = float(np.mean(x**2))
        mxy = float(np.mean(x[:, 0] * y))
        hist1, hist2 = [w1_0] * 8, [w2_0] * 8
        d2 = 0.0
        g1c, g2c = decay ** (1 / 3.0), decay ** (1 / 1.0)
        d1 = 0.0
        for t in range(20):
            u1 = hist1[3] if t >= 3 else w1_0
            u2 = hist2[1] if t >= 1 else w2_0
            b2 = hist2[0] - 1.0 * d2  # T2-corrected current w2 (Δτ = 1)
            r = u2 * u1 * mx - mxy
            w1n = hist1[0] - alpha * 2 * b2 * r
            w2n = hist2[0] - alpha * 2 * u1 * r
            d1 = g1c * d1 + (1 - g1c) * (w1n - hist1[0])
            d2 = g2c * d2 + (1 - g2c) * (w2n - hist2[0])
            hist1 = [w1n] + hist1[:-1]
            hist2 = [w2n] + hist2[:-1]
            assert traj[t + 1][0] == pytest.approx(w1n, abs=1e-13)
            assert traj[t + 1][1] == pytest.approx(w2n, abs=1e-13)

    @pytest.mark.parametrize(
        "recompute_segment, last_losses, weight_sum",
        [
            (None,
             [0.30334522923075535, 0.2593535674605558,
              0.3379559651272788, 0.2665509294316067],
             -21.333807712189145),
            (2,
             [0.3121396708904675, 0.26312139584251304,
              0.3347974510743419, 0.2658650844272095],
             -21.068249557004055),
        ],
    )
    def test_t2_trajectory_matches_recorded_history(
        self, rng, recompute_segment, last_losses, weight_sum
    ):
        """N = 4, T1 + T2, momentum: the simulator's trajectory equals, bit
        for bit, what the commit *before* the step weight cache produced.
        The differential suites compare backends with each other; this
        compares the simulator with its own past.  Literals recorded on the
        reference container (numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread);
        a different BLAS build may legitimately need them re-recorded."""
        x, y = toy_classification(rng)
        m = MLP([6, 8, 8, 3], np.random.default_rng(7))
        ex, _ = make_executor(
            m, "pipemare", num_microbatches=4, momentum=0.9,
            pipemare=PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5),
            recompute_segment=recompute_segment,
        )
        losses = []
        for i in range(12):
            b = slice((i % 6) * 16, (i % 6 + 1) * 16)
            losses.append(ex.train_step(x[b], y[b]))
        assert losses[-4:] == last_losses
        assert sum(float(np.sum(p.data)) for p in m.parameters()) == weight_sum

    def test_t2_adds_one_weight_copy_of_memory(self, rng):
        m = MLP([6, 8, 3], np.random.default_rng(7))
        ex, _ = make_executor(
            m, "pipemare", pipemare=PipeMareConfig.t2_only(), num_microbatches=2
        )
        assert ex.extra_memory_elements() == m.num_parameters()

    def test_t2_ignored_for_sync_methods(self, rng):
        m = MLP([6, 8, 3], np.random.default_rng(7))
        ex, _ = make_executor(
            m, "gpipe", pipemare=PipeMareConfig.t2_only(), num_microbatches=2
        )
        assert ex.corrector is None


class TestWarmup:
    def test_t3_switches_sync_to_async(self, rng):
        x, y = toy_classification(rng)
        m1 = MLP([6, 8, 3], np.random.default_rng(7))
        m2 = MLP([6, 8, 3], np.random.default_rng(7))
        cfg = PipeMareConfig(use_t1=False, use_t2=False, use_t3=True, warmup_steps=3)
        ex1, _ = make_executor(m1, "pipemare", pipemare=cfg, num_microbatches=2)
        ex2, _ = make_executor(m2, "gpipe", num_microbatches=2)
        # During warmup, PipeMare must match GPipe exactly.
        for i in range(3):
            b = slice(i * 16, (i + 1) * 16)
            ex1.train_step(x[b], y[b])
            ex2.train_step(x[b], y[b])
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
        # After warmup they must diverge (async kicks in).
        for i in range(3, 6):
            b = slice(i * 16, (i + 1) * 16)
            ex1.train_step(x[b], y[b])
            ex2.train_step(x[b], y[b])
        diffs = max(
            np.abs(p1.data - p2.data).max()
            for p1, p2 in zip(m1.parameters(), m2.parameters())
        )
        assert diffs > 0

    def test_step_time_reflects_warmup(self, rng):
        m = MLP([6, 8, 3], np.random.default_rng(7))
        cfg = PipeMareConfig(use_t1=False, use_t2=False, use_t3=True, warmup_steps=2)
        ex, _ = make_executor(m, "pipemare", pipemare=cfg, num_microbatches=2)
        assert ex.step_time() > 3.0  # sync step ≈ 1/0.3
        x, y = toy_classification(rng)
        ex.train_step(x[:16], y[:16])
        ex.train_step(x[:16], y[:16])
        assert ex.step_time() == 1.0  # async now


class TestT1Integration:
    def test_t1_scales_applied_per_stage(self, rng):
        x, y = toy_classification(rng)
        m = MLP([6, 8, 8, 3], np.random.default_rng(7))
        cfg = PipeMareConfig.t1_only(anneal_steps=100)
        ex, _ = make_executor(m, "pipemare", pipemare=cfg, num_microbatches=2)
        ex.train_step(x[:16], y[:16])
        scales = [g.lr_scale for g in ex.optimizer.groups]
        taus = ex.profile.tau_fwd_all()
        for s, scale in enumerate(scales):
            assert scale == pytest.approx(max(taus[s], 1.0) ** -1.0)
        assert scales[0] < scales[-1]  # earliest stage most damped

    def test_t1_inactive_during_warmup(self, rng):
        x, y = toy_classification(rng)
        m = MLP([6, 8, 3], np.random.default_rng(7))
        cfg = PipeMareConfig.full(anneal_steps=100, warmup_steps=2)
        ex, _ = make_executor(m, "pipemare", pipemare=cfg, num_microbatches=2)
        ex.train_step(x[:16], y[:16])
        assert all(g.lr_scale == 1.0 for g in ex.optimizer.groups)


class TestRecomputeExecution:
    def test_recompute_sync_matches_plain(self, rng):
        """In synchronous (GPipe) mode recompute must be a no-op."""
        x, y = toy_classification(rng)
        m1 = MLP([6, 8, 3], np.random.default_rng(7))
        m2 = MLP([6, 8, 3], np.random.default_rng(7))
        ex1, _ = make_executor(m1, "gpipe", num_microbatches=2, recompute_segment=1)
        ex2, _ = make_executor(m2, "gpipe", num_microbatches=2)
        for i in range(4):
            b = slice(i * 16, (i + 1) * 16)
            ex1.train_step(x[b], y[b])
            ex2.train_step(x[b], y[b])
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_recompute_async_trains(self, rng):
        x, y = toy_classification(rng)
        m = MLP([6, 8, 8, 3], np.random.default_rng(7))
        cfg = PipeMareConfig.t1_t2(anneal_steps=50, decay=0.5)
        ex, loss = make_executor(
            m, "pipemare", pipemare=cfg, num_microbatches=2, lr=0.03,
            recompute_segment=2,
        )
        losses = []
        for i in range(40):
            b = slice((i % 6) * 16, ((i % 6) + 1) * 16)
            losses.append(ex.train_step(x[b], y[b]))
        assert np.mean(losses[-5:]) < losses[0]

    def test_recompute_changes_dynamics_vs_no_recompute(self, rng):
        """Recomputed activations come from different weight versions, so
        the async trajectories must differ."""
        x, y = toy_classification(rng)
        params = {}
        for seg in (None, 2):
            m = MLP([6, 8, 8, 3], np.random.default_rng(7))
            ex, _ = make_executor(
                m, "pipemare", num_microbatches=2, lr=0.03, recompute_segment=seg
            )
            for i in range(6):
                b = slice(i * 16, (i + 1) * 16)
                ex.train_step(x[b], y[b])
            params[seg] = np.concatenate([p.data.ravel() for p in m.parameters()])
        assert np.abs(params[None] - params[2]).max() > 1e-12
