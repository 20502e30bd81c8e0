"""Elastic recovery: the three escalation tiers and the harness that caps
them.

* **Per-worker respawn** (socket backend, ``max_worker_restarts``): a
  worker killed mid-step is replaced *inside the current generation* —
  survivors keep their processes and sockets (asserted through the
  registry state history: they never leave READY/RUNNING), the dead slot
  walks LOST → REPLACING → READY, and the retried minibatch continues the
  exact simulator trajectory.  Generation respawn (``max_restarts``)
  remains the fallback once the per-worker budget is spent.
* **Replica degradation** (hybrid runs, thread + process): a replica that
  loses a worker is dropped from the group — the run continues at R−1
  from the failed minibatch onward, bit-identical to a from-scratch R−1
  run restored from a checkpoint at the degradation point, with the event
  recorded in ``RuntimeStats.degradations``.  A repaired replica rejoins
  version-fenced at an optimizer boundary.
* **Crash-safe autosave/resume**: ``PipelineTrainer(autosave_every=N)``
  snapshots at synced boundaries; a driver killed mid-epoch resumes
  bit-exactly from the newest snapshot, fast-forwarding the deterministic
  batch stream.

The ``chaos`` suite soaks all of it: seeded random kills/drops/delays
against the socket backend must end in exactly one of two outcomes —
bit-exact completion vs the simulator, or a typed error with a loadable
latest checkpoint.  Never a hang, never silent corruption.  Per-seed
fault logs go to ``$CHAOS_LOG_DIR`` (CI uploads them on failure).
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np
import pytest

from faultutils import FaultRule, FaultSpec
from repro.io import CheckpointManager, load_checkpoint, save_checkpoint
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
    partition_model,
)
from repro.pipeline import worker as worker_mod
from repro.pipeline.executor import param_groups_from_stages
from repro.pipeline.registry import Backoff
from repro.train import PipelineTrainer

TIMEOUT = 15.0

# Survivor states during a per-worker replacement: anything outside this
# set means a healthy worker was torn down or re-handshaked.
BENIGN = {TaskState.CONNECTING, TaskState.READY, TaskState.RUNNING}


def toy_data(rng, n=96):
    centers = rng.normal(size=(3, 6)) * 2
    y = rng.integers(0, 3, size=n)
    x = centers[y] + rng.normal(size=(n, 6))
    return x, y


def build(backend, seed=7, replicas=1, **kw):
    model = MLP([6, 8, 8, 8, 3], np.random.default_rng(seed))
    stages = partition_model(model, 4)
    opt = SGD(param_groups_from_stages(stages), lr=0.05, momentum=0.9)
    if backend == "simulator":
        ex = PipelineExecutor(
            model, CrossEntropyLoss(), opt, stages, 2, "pipemare",
            num_replicas=replicas, **kw
        )
    else:
        ex = AsyncPipelineRuntime(
            model, CrossEntropyLoss(), opt, stages, 2, "pipemare",
            backend=backend, num_replicas=replicas, **kw
        )
    return model, ex


def install(monkeypatch, rules):
    spec = FaultSpec(rules)
    monkeypatch.setattr(worker_mod, "_channel_hook", spec.wrap)
    return spec


def assert_same_weights(model_a, model_b):
    for p1, p2 in zip(model_a.parameters(), model_b.parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)


@pytest.mark.net
class TestWorkerReplacement:
    """Tier 1: one lost socket worker replaced inside the generation."""

    @pytest.mark.timeout(180)
    def test_killed_worker_is_replaced_in_place_bit_exact(
        self, rng, monkeypatch
    ):
        """The acceptance scenario: kill one socket worker mid-step with a
        per-worker budget.  Only that slot is replaced — the registry
        history proves the survivors never left READY/RUNNING (their
        processes and connections were kept), the dead slot walks
        LOST → REPLACING → READY, the generation counter never moves, and
        the retried trajectory is bit-identical to the simulator."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=1, kind="act", step=2),
        ])
        m1, ex = build("simulator")
        m2, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=False, net_options={"max_worker_restarts": 1},
        )
        with rt:
            losses = []
            i = 0
            while i < 5:
                b = slice(i * 16, (i + 1) * 16)
                try:
                    losses.append(rt.train_step(x[b], y[b]))
                except WorkerLostError as exc:
                    assert exc.worker == 1
                    continue  # retry the lost minibatch on the replacement
                assert losses[-1] == ex.train_step(x[b], y[b])
                i += 1
            registry = rt.pool.registry
            for w in (0, 2, 3):
                assert set(registry[w].history) <= BENIGN, (
                    f"survivor {w} was disturbed: {registry[w].history}"
                )
            h = registry[1].history
            k = h.index(TaskState.LOST)
            assert h[k:k + 3] == [
                TaskState.LOST, TaskState.REPLACING, TaskState.READY
            ]
            assert rt.pool._generation == 1, "generation respawn ran instead"
            assert rt.pool._worker_restarts_left == 0
            assert not rt.pool.wedged
            rt.sync()
            assert_same_weights(m1, m2)

    @pytest.mark.timeout(180)
    def test_replacement_with_overlapped_boundary_bit_exact(
        self, rng, monkeypatch
    ):
        """With two steps in flight a survivor can hold a *queued* zombie
        step at loss time; the post-replacement fence must wait it out or
        the retry's payloads get discarded as stale.  Final weights must
        still match the simulator bit for bit."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=2, kind="act", step=3),
        ])
        m1, ex = build("simulator")
        m2, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=True, net_options={"max_worker_restarts": 1},
        )
        with rt:
            i = 0
            retries = 0
            while i < 6:
                b = slice(i * 16, (i + 1) * 16)
                try:
                    rt.train_step(x[b], y[b])
                except WorkerLostError:
                    retries += 1
                    assert retries < 4, "replacement did not stick"
                    continue
                i += 1
            rt.sync()
            for w in (0, 1, 3):
                assert set(rt.pool.registry[w].history) <= BENIGN
        for i in range(6):
            b = slice(i * 16, (i + 1) * 16)
            ex.train_step(x[b], y[b])
        assert_same_weights(m1, m2)

    @pytest.mark.timeout(240)
    def test_generation_respawn_is_the_fallback_after_budget(
        self, rng, monkeypatch
    ):
        """Two kills against a per-worker budget of one: the first loss is
        repaired in place (generation unchanged), the second falls back to
        a full generation respawn (``max_restarts``) — and the trajectory
        still matches the simulator bit for bit."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=1, kind="act", step=2),
            FaultRule(op="send", action="die", worker=2, kind="act", step=5),
        ])
        m1, ex = build("simulator")
        m2, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=False,
            net_options={"max_worker_restarts": 1, "max_restarts": 1},
        )
        with rt:
            generations = []
            i = 0
            while i < 5:
                b = slice(i * 16, (i + 1) * 16)
                try:
                    loss = rt.train_step(x[b], y[b])
                except WorkerLostError:
                    generations.append(rt.pool._generation)
                    continue
                assert loss == ex.train_step(x[b], y[b])
                i += 1
            assert generations == [1, 2], (
                "expected per-worker replacement first (generation stays 1)"
                " then a generation respawn (2), got " + repr(generations)
            )
            rt.sync()
            assert_same_weights(m1, m2)

    @pytest.mark.timeout(180)
    def test_no_budget_left_wedges_with_typed_errors(self, rng, monkeypatch):
        """Kills beyond every budget wedge the pool: further steps raise
        RuntimeWedgedError and close() stays prompt."""
        x, y = toy_data(rng)
        install(monkeypatch, [
            FaultRule(op="send", action="die", worker=1, kind="act", step=2),
            FaultRule(op="send", action="die", worker=2, kind="act", step=4),
        ])
        m, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=False, net_options={"max_worker_restarts": 1},
        )
        t0 = time.perf_counter()
        with rt:
            losses = 0
            with pytest.raises(WorkerLostError):
                for i in range(6):
                    b = slice((i % 6) * 16, (i % 6 + 1) * 16)
                    try:
                        rt.train_step(x[b], y[b])
                    except WorkerLostError as exc:
                        losses += 1
                        if losses > 1:
                            raise  # second loss: no budget left
            assert rt.pool.wedged
            with pytest.raises(RuntimeWedgedError, match="wedged"):
                rt.train_step(x[:16], y[:16])
        assert time.perf_counter() - t0 < 90.0, "wedge/close path hung"


@pytest.mark.net
class TestReplicaDegradation:
    """Tier 2: hybrid groups drop a dead replica and continue at R−1."""

    def _degrade_and_compare(self, backend, kill, rng, tmp_path, **kw):
        """Shared recipe: run at R=2, checkpoint at a boundary, kill
        replica 1, assert the group degrades to R−1 and continues — then
        replay the remainder on a from-scratch R−1 simulator restored
        from the checkpoint and demand bit-identical losses/weights."""
        x, y = toy_data(rng, n=240)

        def batch(i):
            return x[i * 24:(i + 1) * 24], y[i * 24:(i + 1) * 24]

        model, rt = build(backend, replicas=2, overlap_boundary=False, **kw)
        ck = tmp_path / "degrade.npz"
        with rt:
            [rt.train_step(*batch(i)) for i in range(2)]
            rt.sync()
            save_checkpoint(ck, model, rt.optimizer, rt)
            kill(rt)
            with pytest.raises(PipelineDeadlockError):
                rt.train_step(*batch(2))
            assert rt.group.active == [0]
            assert rt.plan.num_replicas == 1
            (event,) = rt.stats.degradations
            assert event["kind"] == "degrade"
            assert event["replica"] == 1
            assert event["minibatch"] == 2
            cont = [rt.train_step(*batch(i)) for i in range(2, 5)]
            rt.sync()
            weights = [p.data.copy() for p in model.parameters()]
        m_ref, ref = build("simulator", replicas=1)
        load_checkpoint(ck, m_ref, ref.optimizer, ref)
        assert cont == [ref.train_step(*batch(i)) for i in range(2, 5)]
        for got, p in zip(weights, m_ref.parameters()):
            np.testing.assert_array_equal(got, p.data)

    @pytest.mark.timeout(180)
    def test_process_replica_loss_degrades_bit_exact(self, rng, tmp_path):
        self._degrade_and_compare(
            "process",
            lambda rt: (
                rt.group.pools[1]._procs[0].terminate(),
                rt.group.pools[1]._procs[0].join(5.0),
            ),
            rng, tmp_path, deadlock_timeout=2.0, done_grace=2.0,
        )

    @pytest.mark.timeout(180)
    def test_thread_replica_loss_degrades_bit_exact(self, rng, tmp_path):
        # A thread cannot be killed; feeding the command queues the
        # shutdown command makes the pool permanently silent — the same
        # wedge a crashed replica produces.
        self._degrade_and_compare(
            "thread",
            lambda rt: [cq.put(("shutdown",)) for cq in rt.group.pools[1]._cmd],
            rng, tmp_path, deadlock_timeout=1.0, done_grace=2.0,
        )

    @pytest.mark.timeout(180)
    def test_rejoin_at_boundary_is_bit_exact(self, rng, tmp_path):
        """A repaired replica rejoining at an optimizer boundary: from the
        rejoin point the run must match a from-scratch R=2 simulator
        restored from a checkpoint taken at that boundary."""
        x, y = toy_data(rng, n=240)

        def batch(i):
            return x[i * 24:(i + 1) * 24], y[i * 24:(i + 1) * 24]

        model, rt = build(
            "thread", replicas=2, deadlock_timeout=1.0, done_grace=2.0,
            overlap_boundary=False,
        )
        ck = tmp_path / "rejoin.npz"
        with rt:
            [rt.train_step(*batch(i)) for i in range(2)]
            for cq in rt.group.pools[1]._cmd:
                cq.put(("shutdown",))
            with pytest.raises(PipelineDeadlockError):
                rt.train_step(*batch(2))
            assert rt.group.active == [0]
            [rt.train_step(*batch(i)) for i in range(2, 4)]
            rt.sync()
            save_checkpoint(ck, model, rt.optimizer, rt)
            rt.rejoin_replica(1)
            assert rt.group.active == [0, 1]
            assert rt.plan.num_replicas == 2
            assert [d["kind"] for d in rt.stats.degradations] == [
                "degrade", "rejoin"
            ]
            cont = [rt.train_step(*batch(i)) for i in range(4, 6)]
            rt.sync()
            weights = [p.data.copy() for p in model.parameters()]
        m_ref, ref = build("simulator", replicas=2)
        load_checkpoint(ck, m_ref, ref.optimizer, ref)
        assert cont == [ref.train_step(*batch(i)) for i in range(4, 6)]
        for got, p in zip(weights, m_ref.parameters()):
            np.testing.assert_array_equal(got, p.data)


class _PowerCut(BaseException):
    """Simulated driver death: escapes the trainer's loop the way SIGKILL
    would — no cleanup, no final autosave."""


@pytest.mark.net
class TestDriverRestartResume:
    """Tier 3: crash-safe autosave and bit-exact driver-restart resume."""

    def _trainer(self, backend, save_dir, seed=3, autosave_every=2):
        model, ex = (
            build(backend)
            if backend == "simulator"
            else build(backend, deadlock_timeout=TIMEOUT)
        )
        data_rng = np.random.default_rng(1234)
        x, y = toy_data(data_rng, n=120)

        def batch_fn(rng):
            order = rng.permutation(len(x))
            for i in range(5):
                idx = order[i * 24:(i + 1) * 24]
                yield x[idx], y[idx]

        trainer = PipelineTrainer(
            ex, batch_fn, eval_fn=lambda: 0.0, seed=seed,
            autosave_every=autosave_every if save_dir is not None else None,
            autosave_dir=str(save_dir) if save_dir is not None else None,
        )
        return model, ex, trainer

    @pytest.mark.timeout(240)
    def test_killed_driver_resumes_bit_exact(self, tmp_path):
        """Kill the driver mid-epoch between save points; a fresh driver
        with ``resume=True`` fast-forwards the deterministic batch stream
        and finishes with weights and logged metrics bit-identical to an
        uninterrupted run."""
        # The doomed run: autosaves at steps 2 and dies entering step 4.
        model_a, ex_a, trainer_a = self._trainer("socket", tmp_path / "ck")
        steps = {"n": 0}
        real = ex_a.train_step

        def dying_step(x, y):
            if steps["n"] == 3:
                raise _PowerCut
            steps["n"] += 1
            return real(x, y)

        ex_a.train_step = dying_step
        with pytest.raises(_PowerCut):
            trainer_a.run(epochs=2)
        ex_a.close()

        # The restarted driver: a brand-new runtime, resumed from disk.
        model_b, ex_b, trainer_b = self._trainer("socket", tmp_path / "ck")
        with ex_b:
            result_b = trainer_b.run(epochs=2, resume=True)

        # The uninterrupted reference (simulator: also proves the resumed
        # socket run re-joins the cross-backend-identical trajectory).
        model_c, ex_c, trainer_c = self._trainer("simulator", None)
        result_c = trainer_c.run(epochs=2)

        assert_same_weights(model_b, model_c)
        assert result_b.history.series("train_loss") == pytest.approx(
            result_c.history.series("train_loss"), abs=0
        )

    @pytest.mark.timeout(120)
    def test_resume_with_empty_directory_starts_fresh(self, tmp_path):
        model_b, ex_b, trainer_b = self._trainer("simulator", tmp_path / "ck")
        result = trainer_b.run(epochs=1, resume=True)  # nothing saved yet
        model_c, ex_c, trainer_c = self._trainer("simulator", None)
        reference = trainer_c.run(epochs=1)
        assert_same_weights(model_b, model_c)
        assert result.history.series("train_loss") == reference.history.series(
            "train_loss"
        )

    def test_resume_without_autosave_is_rejected(self):
        model, ex, trainer = self._trainer("simulator", None)
        with pytest.raises(ValueError, match="resume=True requires autosave"):
            trainer.run(epochs=1, resume=True)


@pytest.mark.net
class TestBackoffJitter:
    """Satellite: seeded jitter on the reconnect backoff schedule."""

    def _delays(self, monkeypatch, spec, n=6):
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        clock = spec.start()
        for _ in range(n):
            assert clock.sleep()
        return slept

    def test_injected_rng_makes_the_schedule_deterministic(self, monkeypatch):
        mk = lambda seed: Backoff(
            base=0.02, ceiling=0.5, total=1e9, jitter=0.25,
            rng=random.Random(seed),
        )
        a = self._delays(monkeypatch, mk(5))
        b = self._delays(monkeypatch, mk(5))
        c = self._delays(monkeypatch, mk(6))
        assert a == b, "same seed must draw the same schedule"
        assert a != c, "different seeds must desynchronize"

    def test_jitter_stays_within_the_band(self, monkeypatch):
        spec = Backoff(
            base=0.02, ceiling=0.5, total=1e9, jitter=0.25,
            rng=random.Random(0),
        )
        delays = self._delays(monkeypatch, spec, n=10)
        nominal = 0.02
        for d in delays:
            assert nominal * 0.75 <= d <= nominal * 1.25
            nominal = min(nominal * 2, 0.5)

    def test_zero_jitter_is_the_exact_exponential(self, monkeypatch):
        delays = self._delays(
            monkeypatch, Backoff(base=0.01, ceiling=0.04, total=1e9), n=5
        )
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04]

    def test_jitter_validation(self):
        with pytest.raises(ValueError, match="jitter must be in"):
            Backoff(jitter=1.0)
        with pytest.raises(ValueError, match="jitter must be in"):
            Backoff(jitter=-0.1)


@pytest.mark.net
class TestNetOptionsValidation:
    """Satellite: a misconfigured net_options dict fails loudly at
    construction, naming the offending key — not as a phantom cluster
    outage at the first heartbeat sweep."""

    def _build(self, **net_options):
        return build(
            "socket", deadlock_timeout=TIMEOUT, net_options=net_options
        )

    def test_heartbeat_timeout_must_exceed_interval(self):
        with pytest.raises(ValueError) as exc_info:
            self._build(heartbeat_interval=1.0, heartbeat_timeout=0.5)
        msg = str(exc_info.value)
        assert "heartbeat_timeout" in msg and "heartbeat_interval" in msg

    def test_equal_heartbeat_timeout_is_rejected_too(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            self._build(heartbeat_interval=1.0, heartbeat_timeout=1.0)

    @pytest.mark.parametrize(
        "key", ["heartbeat_interval", "connect_timeout", "handshake_timeout"]
    )
    def test_negative_timeouts_are_rejected_by_name(self, key):
        with pytest.raises(ValueError, match=key):
            self._build(**{key: -1.0})

    @pytest.mark.parametrize("key", ["max_restarts", "max_worker_restarts"])
    def test_negative_budgets_are_rejected_by_name(self, key):
        with pytest.raises(ValueError, match=key):
            self._build(**{key: -1})


# -- chaos soak ----------------------------------------------------------------

CHAOS_SEEDS = list(range(10))
CHAOS_STEPS = 6


def _chaos_rules(seed):
    """A seeded random fault script: 1-2 faults at exact coordinates."""
    rng = random.Random(seed)
    rules = []
    for step in sorted(rng.sample(range(2, CHAOS_STEPS + 2), rng.randint(1, 2))):
        action = rng.choice(["die", "drop", "delay", "delay"])
        rules.append(FaultRule(
            op="send",
            action=action,
            worker=rng.randrange(4),
            kind=rng.choice(["act", "grad"]),
            step=step,
            delay=0.05,
        ))
    return rules


@pytest.mark.chaos
class TestChaosSoak:
    """Seeded chaos against the socket backend.  Contract: every run ends
    in exactly one of two states — bit-exact completion vs the simulator,
    or a typed error with a loadable latest checkpoint.  Never a hang
    (every wait in the stack is deadline-bounded, enforced here by the
    test timeout), never silent corruption (every completed step's loss
    is compared against the simulator as it happens)."""

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_ends_bit_exact_or_typed_with_checkpoint(
        self, rng, monkeypatch, tmp_path, seed
    ):
        rules = _chaos_rules(seed)
        log = {
            "seed": seed,
            "rules": [
                {k: getattr(r, k) for k in
                 ("op", "action", "worker", "kind", "step")}
                for r in rules
            ],
            "events": [],
        }
        install(monkeypatch, rules)
        x, y = toy_data(rng)
        m1, ex = build("simulator")
        m2, rt = build(
            "socket", deadlock_timeout=2.0, done_grace=5.0,
            overlap_boundary=False,
            net_options={"max_worker_restarts": 1, "max_restarts": 1},
        )
        manager = CheckpointManager(tmp_path / "chaos", keep=2)
        outcome = None
        try:
            with rt:
                manager.save(m2, rt.optimizer, rt, extra={"step": 0})
                i = 0
                failures = 0
                while i < CHAOS_STEPS:
                    b = slice(i * 16, (i + 1) * 16)
                    try:
                        loss = rt.train_step(x[b], y[b])
                    except (WorkerLostError, PipelineDeadlockError) as exc:
                        log["events"].append(
                            {"step": i, "error": type(exc).__name__,
                             "detail": str(exc)}
                        )
                        failures += 1
                        if rt.pool.wedged or failures > 4:
                            raise
                        continue  # recovered: retry the failed minibatch
                    assert loss == ex.train_step(x[b], y[b]), (
                        f"seed {seed}: silent divergence at step {i}"
                    )
                    i += 1
                    if i == 3:
                        rt.sync()
                        manager.save(m2, rt.optimizer, rt, extra={"step": i})
                rt.sync()
                assert_same_weights(m1, m2)
                outcome = "bit-exact"
        except (WorkerLostError, PipelineDeadlockError, RuntimeWedgedError) as exc:
            # Typed failure: the rolling checkpoint must still load into a
            # fresh stack — the run is resumable, not corrupt.
            outcome = f"typed-error:{type(exc).__name__}"
            m3, ex3 = build("simulator")
            extra = manager.load_latest(m3, ex3.optimizer, ex3)
            assert extra["step"] in (0, 3)
        finally:
            log["outcome"] = outcome
            t0 = time.perf_counter()
            rt.close()
            log["close_seconds"] = round(time.perf_counter() - t0, 3)
            log_dir = os.environ.get("CHAOS_LOG_DIR")
            if log_dir:
                os.makedirs(log_dir, exist_ok=True)
                with open(
                    os.path.join(log_dir, f"chaos-seed-{seed}.json"), "w"
                ) as fh:
                    json.dump(log, fh, indent=2)
        assert outcome is not None, f"seed {seed}: escaped the contract"
        assert log["close_seconds"] < 30.0, "close() hung after chaos"
