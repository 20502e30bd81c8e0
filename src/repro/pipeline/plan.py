"""The per-minibatch step plan shared by both pipeline backends.

:class:`StepPlan` owns every decision the paper's semantics pin down for one
optimizer step — which weight version each stage reads at each forward /
backward / recompute slot, how microbatch gradients are weighted and
accumulated, and everything that happens at the optimizer-step boundary
(grad scaling, clipping, T1 rescheduling, the step itself, pushing the new
version, T2 velocity updates).

Both the sequential simulator (:class:`repro.pipeline.PipelineExecutor`) and
the concurrent runtime (:class:`repro.pipeline.AsyncPipelineRuntime`)
delegate to one ``StepPlan``, which is what makes their trajectories
bit-for-bit identical: the backends differ only in *when* (wall-clock) each
(stage, microbatch) work item runs, never in *what* it computes.

All weight lookups resolve against the :class:`WeightVersionStore` rather
than live ``Parameter.data`` so the answers are independent of which version
the parameters currently point at — a hard requirement once stages execute
concurrently on worker threads.

The version *arithmetic* (delay slot → store version → arrays) lives in the
:class:`WeightResolver` base so it can run away from the driver: process
workers build a :class:`WorkerPlanMirror` — the same resolver over a
:class:`~repro.pipeline.weight_store.SharedWeightMirror` instead of the
in-process store — from a small picklable :class:`ResolverSpec`, and resolve
the exact same slots the driver's :class:`StepPlan` would.  The resolver is
stage-indexed, not worker-indexed, so a worker may resolve *any* stage's
slots — which is how borrowed tied weights (a projection reading the
embedding stage's version) stay exact on whichever worker uses them.

What a resolver never holds is *scratch*.  The T2 extrapolation
``w − Δτ·δ`` behind backward and recompute reads is produced by a
:class:`StepWeightCache`, one per wave executor (each
:class:`~repro.pipeline.worker.Worker`, the simulator's ``train_step``):
once per (stage, version, Δτ) per minibatch, into buffers that executor
keeps.  Thread workers share one ``StepPlan`` and run a step apart, so
anything cached on the plan would be rewritten under a wave still using it.

:class:`PipelineBackend` is the shared surface of all backends.  Besides
plan delegation and the microbatch plumbing hooks it drives two module
protocols that keep weight-tied and stochastic models bit-for-bit equal
across backends: deferred tied gradients (``enable_deferred_grads`` /
``deferred_grads`` — buffers folded into ``Parameter.grad`` once per
minibatch, in a fixed order) and counter-based dropout slots
(``_set_dropout_slot`` — see :mod:`repro.nn.dropout`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.core import DiscrepancyCorrector, LRReschedule, PipeMareConfig, WarmupSchedule
from repro.core.discrepancy import extrapolate
from repro.nn.dropout import Dropout
from repro.nn.module import Parameter
from repro.optim import Optimizer, clip_grad_norm
from repro.optim.schedulers import LRSchedule
from repro.pipeline.delays import DelayProfile, Method, _ceil_div
from repro.pipeline.partition import Stage, check_replica_count
from repro.pipeline.recompute import recompute_delay_slots, segment_heads
from repro.pipeline.weight_store import SharedWeightMirror, WeightVersionStore


class WeightResolver:
    """Delay-slot → weight-array resolution, independent of where the
    version payloads live.

    Subclasses provide: ``profile`` (:class:`DelayProfile`), ``method``,
    ``store`` (anything with ``weights(stage, version)``,
    ``latest_version`` and ``wait_version`` — the in-process
    :class:`WeightVersionStore` or a worker's
    :class:`~repro.pipeline.weight_store.SharedWeightMirror`),
    ``corrector`` (``None`` or an object with ``dtau[stage]`` and
    ``velocity[stage]``), ``recompute_segment`` / ``_recompute_lag`` /
    ``_segment_heads``, and the minibatch counter ``t``.

    Forward reads are plain store lookups.  Backward and recompute reads
    may be T2 extrapolations, which the resolver only *describes*
    (:meth:`backward_read` / :meth:`recompute_read`: a store version plus
    an optional Δτ) — the arrays are produced by the
    :class:`StepWeightCache` of whoever executes the wave, because the
    resolver is shared (thread workers all hold the driver's one
    :class:`StepPlan`) and scratch buffers must not be.

    Every lookup takes the minibatch index ``t`` explicitly so a resolver
    can serve a step the driver has not finalized yet: with the overlapped
    optimizer boundary, workers execute minibatch t+1 while the resolver's
    own ``t`` attribute (and the store's latest version) still describe
    minibatch t.
    """

    profile: DelayProfile
    method: Method
    corrector = None
    recompute_segment: int | None = None
    t: int = 0

    # -- step-level predicates -----------------------------------------------
    @property
    def num_stages(self) -> int:
        return self.profile.num_stages

    @property
    def num_microbatches(self) -> int:
        return self.profile.num_microbatches

    def recompute_active(self, sync: bool) -> bool:
        return self.recompute_segment is not None and not sync

    # -- weight-version resolution (store-based, execution-order free) -------
    def forward_weights(self, stage: int, t: int, j: int, sync: bool) -> list[np.ndarray]:
        """Arrays stage ``stage`` must read in the forward of microbatch j
        of minibatch t."""
        if sync:
            return self.store.weights(stage, t)
        return self.store.weights(stage, self.profile.fwd_version(stage, t, j))

    def backward_read(
        self, stage: int, t: int, j: int, sync: bool
    ) -> tuple[int, float | None]:
        """``(version, Δτ)`` of the backward-pass read: the stashed forward
        version (PipeDream) or the current version (GPipe, PipeMare), plain
        (``Δτ`` ``None``) or T2-extrapolated ``w − Δτ·δ`` (PipeMare + T2).

        "Current" weights during minibatch t hold version t (version t+1 is
        only pushed at t's own boundary), so the version is addressed
        directly instead of through ``latest_version`` — with the
        overlapped boundary the store's latest may already be ahead of a
        step still draining.
        """
        if not sync and self.method is Method.PIPEDREAM:
            return self.profile.bkwd_version(stage, t, j), None
        if sync or self.corrector is None:
            return t, None
        dtau = self.corrector.dtau[stage]
        return t, (dtau if dtau > 0 else None)

    def _recompute_version(self, stage: int, t: int, j: int) -> int:
        """Weight version used to regenerate stage activations: the version
        resident ``lag`` slots before the backward slot; segment heads reuse
        the original forward version (their input was cached, not
        recomputed)."""
        if stage in self._segment_heads:
            return self.profile.fwd_version(stage, t, j)
        n = self.profile.num_microbatches
        slot = t * n + j - int(self._recompute_lag[stage])
        return max(0, _ceil_div(slot - n + 1, n))

    def recompute_read(self, stage: int, t: int, j: int) -> tuple[int, float | None]:
        """``(version, Δτ)`` of the read that regenerates activations before
        backward (Appendix D's three-delay model), with the T2
        extrapolation toward ``u_fwd`` applied to non-head stages (App.
        D.1)."""
        version = self._recompute_version(stage, t, j)
        if self.corrector is None or stage in self._segment_heads:
            return version, None
        tau_r = self._recompute_lag[stage] / self.profile.num_microbatches
        return version, max(self.profile.tau_fwd(stage) - tau_r, 0.0)

    # -- per-wave version gating ----------------------------------------------
    def required_version(self, op: str, stage: int, t: int, j: int, sync: bool) -> int:
        """Minimum published store version the (op, stage, microbatch) wave
        of minibatch t needs before it may execute — the gate the overlapped
        boundary is built on.

        * Synchronous steps read the current version (t) everywhere.
        * Backward waves require version t even when their weight read is
          older (PipeDream's stash): version t's publication marks the
          completion of boundary t−1 — gradient accumulators zeroed, T2
          velocities advanced — i.e. minibatch t's gradient epoch is open.
        * T2 recompute waves on non-head stages extrapolate with the
          boundary-(t−1) velocity, so they gate on version t as well even
          though the raw weight version they read is older.
        """
        if sync or op == "B":
            return t
        if op == "F":
            return self.profile.fwd_version(stage, t, j)
        # op == "R"
        if self.corrector is not None and stage not in self._segment_heads:
            return t
        return self._recompute_version(stage, t, j)

    def wave_gate_version(
        self, op: str, stages: list[int], t: int, j: int, sync: bool
    ) -> int:
        """Gate version for a worker wave touching ``stages`` (owned stages
        plus borrowed tied-weight stages): the max of each stage's
        requirement."""
        return max(self.required_version(op, s, t, j, sync) for s in stages)

    def wait_version(self, version: int, timeout: float) -> None:
        """Block until ``version`` is published (no-op when it already is);
        raises :class:`~repro.pipeline.transport.TransportTimeout` on
        expiry.  Both store kinds implement the wait."""
        self.store.wait_version(version, timeout)

    def wave_programs(
        self,
        programs: list[list[tuple[str, int]]],
        read_stages: list[list[int]],
        fwd_peers: list[list[int]],
        bwd_peers: list[list[int]],
        sync: bool,
        fuse: bool = True,
    ):
        """Compile per-worker wave schedules into fused command blocks (see
        :mod:`repro.pipeline.waveprogram`).  Defined on the resolver base so
        the driver's :class:`StepPlan` and a process/socket worker's
        :class:`WorkerPlanMirror` compile byte-identical programs from the
        same store-free version arithmetic."""
        from repro.pipeline.waveprogram import compile_wave_programs

        return compile_wave_programs(
            self, programs, read_stages, fwd_peers, bwd_peers, sync, fuse
        )

    def _init_recompute(self, recompute_segment: int | None) -> None:
        self.recompute_segment = recompute_segment
        if recompute_segment is not None:
            self._recompute_lag = recompute_delay_slots(self.num_stages, recompute_segment)
            self._segment_heads = set(segment_heads(self.num_stages, recompute_segment))
        else:
            self._recompute_lag = None
            self._segment_heads = set()


class StepPlan(WeightResolver):
    """Delay-slot resolution + optimizer-step boundary for one pipeline.

    Parameters mirror :class:`repro.pipeline.PipelineExecutor`; ``params``
    is the full flat parameter list (model order) used for gradient scaling
    and clipping.
    """

    def __init__(
        self,
        params: list[Parameter],
        optimizer: Optimizer,
        stages: list[Stage],
        num_microbatches: int,
        method: Method | str = Method.PIPEMARE,
        pipemare: PipeMareConfig | None = None,
        base_schedule: LRSchedule | None = None,
        grad_clip: float | None = None,
        recompute_segment: int | None = None,
        partition_plan=None,
        inflight_depth: int = 1,
        num_replicas: int = 1,
    ):
        check_replica_count(num_replicas)
        self.params = params
        self.optimizer = optimizer
        self.stages = stages
        self.method = Method(method)
        # Hybrid data × pipeline parallelism: R pipeline replicas share this
        # one plan (one version clock, one optimizer, one weight store), and
        # the boundary averages their folded gradients — so the per-step
        # normalization below divides by n·R instead of n.  R=1 is the
        # single-pipeline plan, bit for bit.
        self.num_replicas = num_replicas
        # The PartitionPlan behind ``stages`` (None for ad-hoc partitions).
        # The delay profile below keys off the *stage* count it prescribes —
        # a sublayer-granular plan deepens the pipe, so T1/T2/T3 see the
        # correspondingly larger τ while worker counts remain a separate,
        # coalescible knob (see stage_compute.build_worker_graph).
        self.partition_plan = partition_plan
        self.profile = DelayProfile(len(stages), num_microbatches, self.method)
        if inflight_depth < 1:
            raise ValueError(f"inflight_depth must be >= 1, got {inflight_depth}")
        # Each extra in-flight step pushes the *newest* version one further
        # ahead of the oldest slot a draining step still resolves, so the
        # version window deepens accordingly.  Depth 1 reproduces the
        # original ``history_needed()`` window exactly.
        self.history = self.profile.history_needed() + (inflight_depth - 1)
        self.store = WeightVersionStore(stages, self.history)
        self.base_schedule = base_schedule
        self.grad_clip = grad_clip
        self.t = 0  # minibatch (optimizer-step) counter

        if len(optimizer.groups) != len(stages):
            raise ValueError(
                f"optimizer must have one group per stage "
                f"({len(optimizer.groups)} groups, {len(stages)} stages)"
            )

        cfg = pipemare if (pipemare is not None and self.method is Method.PIPEMARE) else None
        self.config = cfg
        tau_f = self.profile.tau_fwd_all()
        tau_b = self.profile.tau_bkwd_all()
        self.reschedule = (
            LRReschedule(tau_f, cfg.anneal_steps) if cfg and cfg.use_t1 else None
        )
        self.corrector = (
            DiscrepancyCorrector([s.params for s in stages], tau_f, tau_b, cfg.decay)
            if cfg and cfg.use_t2
            else None
        )
        self.warmup = WarmupSchedule(cfg.warmup_steps if cfg and cfg.use_t3 else 0)
        self._init_recompute(recompute_segment)

    def is_sync_step(self) -> bool:
        """True while T3's synchronous (GPipe-style) warmup window is active
        or the method itself is GPipe."""
        return self.is_sync_step_at(self.t)

    def is_sync_step_at(self, t: int) -> bool:
        """Sync predicate for an explicit minibatch index — needed when a
        step is issued while the previous boundary is still pending (the
        plan's own ``t`` then lags the step being admitted)."""
        if self.method is Method.GPIPE:
            return True
        return self.warmup.is_synchronous(t)

    def resolver_spec(self) -> "ResolverSpec":
        """The picklable recipe a process worker uses to rebuild this plan's
        version arithmetic against the shared-memory mirror."""
        return ResolverSpec(
            num_stages=self.num_stages,
            num_microbatches=self.num_microbatches,
            method=self.method.value,
            recompute_segment=self.recompute_segment,
            use_t2=self.corrector is not None,
            history=self.history,
        )

    # -- gradient weighting ---------------------------------------------------
    def grad_scale(self, microbatch_len: int, total: int) -> float:
        """Loss-gradient multiplier giving the exact minibatch mean even for
        ragged microbatches (combined with the final ``1/N`` in
        :meth:`finish_step`)."""
        return microbatch_len * self.profile.num_microbatches / total

    def set_num_replicas(self, m: int) -> None:
        """Renormalize the boundary for elastic replica degradation or
        rejoin: subsequent boundaries divide the folded gradient by
        ``n·m`` instead of ``n·R``.  Only legal between optimizer
        boundaries — the runtime calls this from its failure-recovery
        path (after every in-flight boundary has either run or been
        aborted) and from :meth:`~AsyncPipelineRuntime.rejoin_replica`
        (at a synced boundary), never mid-step."""
        if m < 1:
            raise ValueError(f"active replica count must be >= 1, got {m}")
        self.num_replicas = int(m)

    # -- optimizer-step boundary ----------------------------------------------
    def begin_step(self) -> None:
        self.optimizer.zero_grad()

    def finish_step(self, sync: bool) -> None:
        """Everything that happens once all N microbatch gradients are in:
        restore latest weights, normalize/clip grads, apply LR schedules
        (T1 only on async steps), step, push version t+1, update T2."""
        self.store.load_latest()

        n = self.profile.num_microbatches * self.num_replicas
        for p in self.params:
            p.grad *= 1.0 / n
        if self.grad_clip is not None:
            clip_grad_norm(self.params, self.grad_clip)

        if self.base_schedule is not None:
            self.optimizer.lr = self.base_schedule(self.t)
        if self.reschedule is not None and not sync:
            self.reschedule.apply(self.optimizer, self.t)
        else:
            for group in self.optimizer.groups:
                group.lr_scale = 1.0

        old_weights = [s.current() for s in self.stages] if self.corrector else None
        self.optimizer.step()
        self.store.push_current()
        if self.corrector is not None and old_weights is not None:
            self.corrector.update_all(old_weights)
        self.t += 1

    def finish_step_detached(self, sync: bool) -> None:
        """:meth:`finish_step` without ever touching live ``Parameter.data``
        — the overlapped-boundary variant.

        While this runs, worker threads of the *next* minibatch are already
        re-pointing the shared parameters at historical versions for their
        fill waves, so the boundary must read version t's weights straight
        from the store, compute the update into fresh arrays
        (:meth:`~repro.optim.Optimizer.step_detached`), and publish them —
        leaving the live parameter pointers to the workers.  Gradients are
        safe to consume: backward waves of the next step gate on version
        t+1, which this method publishes *last* (the release operation the
        gates observe).  Bit-for-bit identical to :meth:`finish_step`: same
        arrays in, same expressions, same optimizer state mutation — only
        where the result lands differs.
        """
        n = self.profile.num_microbatches * self.num_replicas
        for p in self.params:
            p.grad *= 1.0 / n
        if self.grad_clip is not None:
            clip_grad_norm(self.params, self.grad_clip)

        if self.base_schedule is not None:
            self.optimizer.lr = self.base_schedule(self.t)
        if self.reschedule is not None and not sync:
            self.reschedule.apply(self.optimizer, self.t)
        else:
            for group in self.optimizer.groups:
                group.lr_scale = 1.0

        v = self.store.latest_version
        old = [list(self.store.weights(s, v)) for s in range(self.num_stages)]
        new = self.optimizer.step_detached(old)
        if self.corrector is not None:
            self.corrector.update_all_arrays(old, new)
        # Open minibatch t+1's gradient epoch before the publish below
        # releases its gated backward waves.
        self.optimizer.zero_grad()
        self.store.push_arrays(new)
        self.t += 1

    def resolvable_versions(self) -> list[int]:
        """Store versions any wave of the *next* step can still resolve —
        what a republish (checkpoint restore) actually needs to push.  The
        oldest read of minibatch t is ``t − (history − 2)`` (the deepest
        forward/recompute delay slot), so the last resident version is dead
        weight on the wire; see :meth:`DelayProfile.history_needed`."""
        latest = self.store.latest_version
        oldest_needed = max(0, latest - (self.history - 2))
        return [v for v in self.store.resident_versions(0) if v >= oldest_needed]

    # -- accounting --------------------------------------------------------------
    def step_time(self) -> float:
        """Relative hardware time of the step about to run: 1.0 for the
        bubble-free methods, ``1/0.3`` for synchronous (GPipe-style) steps —
        the Appendix A.3 model used for time-to-accuracy."""
        return self.step_time_at(self.t)

    def step_time_at(self, t: int) -> float:
        """Like :meth:`step_time` for an explicit minibatch index (the next
        step to issue may be one ahead of ``self.t`` under the overlapped
        boundary)."""
        from repro.pipeline import costmodel

        if self.is_sync_step_at(t):
            return 1.0 / costmodel.optimal_gpipe_throughput()[0]
        return 1.0

    def extra_memory_elements(self) -> int:
        """Extra persistent memory beyond one weight copy that the *method*
        asks for: the T2 velocity buffer δ only (PipeDream's stash is
        accounted analytically).  The :class:`StepWeightCache` scratch of
        each wave executor is an implementation copy of the stages it
        reads, not part of the paper's memory model, and is not counted."""
        return self.corrector.memory_elements() if self.corrector else 0

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything mutable beyond the model itself: the minibatch
        counter, the per-stage weight-version window (delayed reads resume
        exactly), and the T2 velocity buffers.  The optimizer is checkpointed
        separately (:meth:`repro.optim.Optimizer.state_dict`)."""
        state = {"t": self.t, "store": self.store.state_dict()}
        if self.corrector is not None:
            state["corrector"] = self.corrector.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.  The plan must have been built
        with the same model partition and PipeMare configuration."""
        if ("corrector" in state) != (self.corrector is not None):
            raise ValueError(
                "checkpoint and executor disagree on T2 discrepancy "
                "correction (one has a corrector, the other does not)"
            )
        self.t = int(state["t"])
        self.store.load_state_dict(state["store"])
        if self.corrector is not None:
            self.corrector.load_state_dict(state["corrector"])


@dataclass
class PipelineReplica:
    """One extra pipeline replica: a pickle round-trip copy of the driver's
    ``(model, loss_fn)`` with stages rebuilt over the copy's parameters.

    The copy's *initial weights are irrelevant*: every pipeline wave loads
    the exact weight version the shared :class:`WeightVersionStore`
    prescribes before computing, so only the copy's gradient buffers (and
    its per-replica dropout streams / persistent state) carry information.
    """

    index: int
    model: object
    loss_fn: object
    stages: list[Stage]
    params: list[Parameter] = field(default_factory=list)
    counter_dropouts: list = field(default_factory=list)
    deferred_modules: list = field(default_factory=list)


def build_pipeline_replicas(model, loss_fn, stages: list[Stage], num_replicas: int) -> list[PipelineReplica]:
    """Replicas ``1 .. R-1`` for hybrid data × pipeline parallelism.

    Each replica is a pickle round-trip of ``(model, loss_fn)``; its stages
    are rebuilt positionally over the copy's flat parameter list (pickling
    preserves registration order, including tied-parameter dedup), so the
    copy partitions bit-identically to the driver.  Counter-based dropouts
    on the copy are re-keyed to the replica index, giving each replica an
    independent — but fully deterministic — mask stream.
    """
    primary = model.parameters()
    pos_of = {id(p): i for i, p in enumerate(primary)}
    replicas = []
    for r in range(1, num_replicas):
        copy_model, copy_loss = pickle.loads(pickle.dumps((model, loss_fn)))
        copy_params = copy_model.parameters()
        if len(copy_params) != len(primary):
            raise ValueError(
                f"replica copy has {len(copy_params)} parameters, "
                f"driver model has {len(primary)}"
            )
        copy_stages = [
            Stage(
                index=s.index,
                params=[copy_params[pos_of[id(p)]] for p in s.params],
                names=list(s.names),
            )
            for s in stages
        ]
        counter_dropouts = []
        deferred_modules = []
        for m in copy_model.modules():
            if hasattr(m, "deferred_grads"):
                deferred_modules.append(m)
            if isinstance(m, Dropout) and m.counter_based:
                m.replica = r
                counter_dropouts.append(m)
        for p in copy_params:
            p.zero_grad()
        replicas.append(
            PipelineReplica(
                index=r,
                model=copy_model,
                loss_fn=copy_loss,
                stages=copy_stages,
                params=copy_params,
                counter_dropouts=counter_dropouts,
                deferred_modules=deferred_modules,
            )
        )
    return replicas


class ReplicaPlan:
    """R pipeline replicas sharing one :class:`StepPlan` — hybrid data ×
    pipeline parallelism with one version clock.

    Replica 0 is the driver's live model; replicas ``1 .. R-1`` are
    :class:`PipelineReplica` copies.  All replicas read weight versions from
    the *same* store (so every replica sees the exact staleness the delay
    profile prescribes, and the gating arithmetic in
    :meth:`WeightResolver.required_version` is unchanged), and the optimizer
    steps once per minibatch on the average of all replica gradients.

    **Canonical fold order** (the bit-for-bit contract every backend obeys):
    replica 0's ``Parameter.grad`` accumulates its own microbatch gradients
    in microbatch order, then its deferred tied-gradient buffers; each copy
    replica accumulates the same way into its *own* gradient buffers; then
    :meth:`fold_replica_grads` adds the copies into replica 0 in ascending
    replica index.  Addition order is therefore a function of indices only —
    never of which replica finished first — so the fold is deterministic
    under any completion order.  The shared plan's boundary then divides by
    ``n·R`` (see :class:`StepPlan`), yielding the mean over all replicas'
    microbatch-mean gradients.
    """

    def __init__(self, plan: StepPlan, model, loss_fn):
        self.plan = plan
        self.num_replicas = plan.num_replicas
        self.replicas = build_pipeline_replicas(
            model, loss_fn, plan.stages, plan.num_replicas
        )

    def fold_replica_grads(self, active=None) -> None:
        """Fold every copy replica's accumulated gradients into the shared
        plan's parameters (replica 0), ascending replica index, and zero the
        copy buffers for the next step.  Callers fold each replica's
        deferred tied gradients into that replica's own buffers first.

        ``active`` (a set of replica indices, or None for all) restricts
        the fold to replicas that are still training — a degraded group
        must not fold a dropped replica's stale buffers (see
        :meth:`AsyncPipelineRuntime._maybe_degrade`).  Skipping indices
        preserves the canonical ascending order over the survivors, so a
        degraded fold is bit-identical to a from-scratch run at the
        reduced replica count with the same shard assignment."""
        for rep in self.replicas:
            if active is not None and rep.index not in active:
                continue
            for p0, pr in zip(self.plan.params, rep.params):
                p0.grad += pr.grad
                pr.grad[...] = 0.0


def split_views(arr, n: int) -> list:
    """Split ``arr`` into ``n`` view chunks along axis 0 with
    ``np.array_split`` semantics (first ``len(arr) % n`` chunks one
    longer).  ``np.array_split`` also returns views; this is just its
    division arithmetic inlined to plain basic slicing, shaving the
    wrapper overhead off the per-step hot path.  That every worker input
    is a window into the caller's minibatch — never a per-step copy — is
    pinned by the overlap suite's no-copy test."""
    size, extra = divmod(len(arr), n)
    out = []
    lo = 0
    for i in range(n):
        hi = lo + size + (1 if i < extra else 0)
        out.append(arr[lo:hi])
        lo = hi
    return out


@dataclass(frozen=True)
class ResolverSpec:
    """Everything a spawned worker needs to rebuild a :class:`StepPlan`'s
    version arithmetic — plain scalars only, so it pickles under any
    multiprocessing start method."""

    num_stages: int
    num_microbatches: int
    method: str
    recompute_segment: int | None
    use_t2: bool
    history: int


class _MirrorCorrector:
    """Worker-side stand-in for :class:`~repro.core.DiscrepancyCorrector`:
    the same per-stage ``dtau``, with the velocity EWMAs read from the
    shared mirror instead of process-local buffers.  Only the driver
    *updates* velocities (at the optimizer boundary); workers are pure
    readers."""

    class _Velocity:
        def __init__(self, mirror: SharedWeightMirror):
            self._mirror = mirror

        def __getitem__(self, stage: int) -> list[np.ndarray]:
            return self._mirror.velocity(stage)

    def __init__(self, mirror: SharedWeightMirror, dtau: np.ndarray):
        self.dtau = dtau
        self.velocity = self._Velocity(mirror)


class WorkerPlanMirror(WeightResolver):
    """The resolver a process worker executes against: identical arithmetic
    to the driver's :class:`StepPlan` (same base class), weights and T2
    velocities read from the :class:`SharedWeightMirror`.  ``t`` and the
    sync flag arrive with each step's command message."""

    def __init__(self, spec: ResolverSpec, mirror: SharedWeightMirror):
        self.method = Method(spec.method)
        self.profile = DelayProfile(spec.num_stages, spec.num_microbatches, self.method)
        self.store = mirror
        self.corrector = (
            _MirrorCorrector(
                mirror, self.profile.tau_fwd_all() - self.profile.tau_bkwd_all()
            )
            if spec.use_t2
            else None
        )
        self.t = 0
        self._init_recompute(spec.recompute_segment)


class StepWeightCache:
    """One wave executor's private T2 extrapolation cache: the backward and
    recompute reads of a :class:`WeightResolver`, with every extrapolated
    array computed once per optimizer step and written into scratch that
    lives as long as the executor.

    ``u = w − Δτ·δ`` is a pure function of (stage, version, Δτ) for the
    duration of one minibatch — weights and velocities only change at the
    optimizer boundary — so the N backward waves of a step (and its
    recompute waves) share one result per stage instead of rebuilding it
    per wave.  The result lists double as the scratch: slot ``pos`` of a
    list is allocated by its first extrapolation and overwritten in place
    by every later step's, so steady-state loads allocate nothing.

    Two rules keep that exact:

    * **the executor owns the cache, never the resolver.**  Thread workers
      share one :class:`StepPlan`, run up to a step apart under the
      overlapped boundary, and may read the same stage (a stage split
      across two workers, a tied projection borrowing the embedding
      stage) — a shared buffer would be overwritten under a wave still
      reading it.
    * **keys die with the step** (:meth:`begin_step`), buffers survive.  A
      retried step, a ``resync`` or a ``load_state_dict`` at an unchanged
      ``t`` therefore always re-extrapolates from what the store and the
      velocities hold *now*.

    ``positions`` maps each stage the executor reads to the parameter
    positions it binds or borrows there; other slots of a returned list
    stay ``None``.  ``None`` (the simulator) reads every position of every
    stage.  The store is still consulted on every read, so a mirror's
    residency check fires exactly as often as without the cache.
    """

    def __init__(
        self, resolver: WeightResolver, positions: dict[int, list[int]] | None = None
    ):
        self.resolver = resolver
        self._positions = positions
        # stage -> {(version, Δτ): arrays} resolved so far this step
        self._resolved: dict[int, dict[tuple, list]] = {}
        # stage -> scratch lists, handed to this step's keys in first-use order
        self._scratch: dict[int, list[list]] = {}

    def begin_step(self) -> None:
        self._resolved.clear()

    def backward_weights(self, stage: int, t: int, j: int, sync: bool) -> list:
        """Arrays stage ``stage`` reads in the backward of microbatch j of
        minibatch t (see :meth:`WeightResolver.backward_read`)."""
        return self._read(stage, *self.resolver.backward_read(stage, t, j, sync))

    def recompute_weights(self, stage: int, t: int, j: int) -> list:
        """Arrays used to regenerate stage activations before backward (see
        :meth:`WeightResolver.recompute_read`)."""
        return self._read(stage, *self.resolver.recompute_read(stage, t, j))

    def _read(self, stage: int, version: int, dtau: float | None) -> list:
        base = self.resolver.store.weights(stage, version)
        if dtau is None:
            return base
        resolved = self._resolved.setdefault(stage, {})
        arrays = resolved.get((version, dtau))
        if arrays is None:
            scratch = self._scratch.setdefault(stage, [])
            if len(resolved) == len(scratch):
                scratch.append([None] * len(base))
            arrays = scratch[len(resolved)]
            velocity = self.resolver.corrector.velocity[stage]
            positions = (
                range(len(base)) if self._positions is None else self._positions[stage]
            )
            for pos in positions:
                arrays[pos] = extrapolate(base[pos], velocity[pos], dtau, out=arrays[pos])
            resolved[(version, dtau)] = arrays
        return arrays


class PipelineBackend:
    """Shared surface of the two pipeline backends: plan delegation,
    microbatch plumbing hooks, accounting, and checkpointing.

    Subclasses (:class:`repro.pipeline.PipelineExecutor`,
    :class:`repro.pipeline.AsyncPipelineRuntime`) construct ``self.plan``
    and implement ``train_step``; multi-input models override the
    ``_split_minibatch`` / ``_forward`` / ``_num_samples`` hooks once and
    the override works against either backend."""

    def __init__(self, model, loss_fn, plan: StepPlan):
        self.model = model
        self.loss_fn = loss_fn
        self.plan = plan
        # Backend-driven module protocols, discovered once:
        # * deferred tied gradients (e.g. a tied output projection):
        #   *scoped* to each train step — enabled at step start, folded
        #   into Parameter.grad and disabled at the minibatch boundary, in
        #   the same order on every backend (bit-for-bit requirement).
        #   Outside a step the module behaves plainly, so gradcheck-style
        #   model.backward use keeps working on a backend-trained model;
        # * counter-based dropouts get their (step, microbatch) slot
        #   positioned before every microbatch forward.
        self._deferred_modules = []
        self._counter_dropouts = []
        for m in model.modules():
            if hasattr(m, "deferred_grads"):
                self._deferred_modules.append(m)
            if isinstance(m, Dropout) and m.counter_based:
                self._counter_dropouts.append(m)

    # -- stochastic-forward + tied-gradient hooks -----------------------------
    def _set_dropout_slot(self, j: int) -> None:
        """Position counter-mode dropout masks for microbatch ``j`` of the
        current optimizer step (see :mod:`repro.nn.dropout`)."""
        for m in self._counter_dropouts:
            m.set_slot(self.plan.t, j)

    def _begin_deferred_grads(self) -> None:
        """Enter deferred tied-gradient mode for this step, with clean
        buffers."""
        for m in self._deferred_modules:
            m.enable_deferred_grads()
            for _, buf in m.deferred_grads():
                buf.fill(0.0)

    def _fold_deferred_grads(self) -> None:
        """Fold deferred tied-gradient buffers into ``Parameter.grad`` once
        all microbatch gradients are in (before :meth:`StepPlan.finish_step`
        normalizes and clips), and leave deferred mode."""
        for m in self._deferred_modules:
            for p, buf in m.deferred_grads():
                p.grad += buf
            m.disable_deferred_grads()

    def _abort_deferred_grads(self) -> None:
        """Leave deferred mode without folding (the step died mid-way), so
        later plain ``model.backward`` use is not silently mis-routed."""
        for m in self._deferred_modules:
            m.disable_deferred_grads()

    # -- plan delegation ------------------------------------------------------
    @property
    def optimizer(self) -> Optimizer:
        return self.plan.optimizer

    @property
    def stages(self) -> list[Stage]:
        return self.plan.stages

    @property
    def method(self) -> Method:
        return self.plan.method

    @property
    def profile(self) -> DelayProfile:
        return self.plan.profile

    @property
    def store(self) -> WeightVersionStore:
        return self.plan.store

    @store.setter
    def store(self, value: WeightVersionStore) -> None:
        self.plan.store = value

    @property
    def config(self) -> PipeMareConfig | None:
        return self.plan.config

    @property
    def corrector(self):
        return self.plan.corrector

    @property
    def reschedule(self):
        return self.plan.reschedule

    @property
    def warmup(self) -> WarmupSchedule:
        return self.plan.warmup

    @property
    def base_schedule(self) -> LRSchedule | None:
        return self.plan.base_schedule

    @property
    def grad_clip(self) -> float | None:
        return self.plan.grad_clip

    @property
    def recompute_segment(self) -> int | None:
        return self.plan.recompute_segment

    @property
    def partition_plan(self):
        return self.plan.partition_plan

    @property
    def t(self) -> int:
        return self.plan.t

    @t.setter
    def t(self, value: int) -> None:
        self.plan.t = value

    # -- microbatch plumbing (overridable for multi-input models) -------------
    def _shard_minibatch(self, x, y, r: int) -> tuple[list, list]:
        """Split (x, y) into R per-replica shard *views* along axis 0 (no
        copies; :func:`split_views` semantics, so the assignment of samples
        to replicas is deterministic in the data order).  Each shard is then
        microbatched per replica via :meth:`_split_minibatch`."""
        return split_views(x, r), split_views(y, r)

    def _split_minibatch(self, x, y, n: int) -> tuple[list, list]:
        """Split (x, y) into N microbatch *views* along axis 0 (no
        copies; see :func:`split_views`)."""
        if len(x) < n:
            raise ValueError(f"minibatch of {len(x)} samples cannot form {n} microbatches")
        return split_views(x, n), split_views(y, n)

    def _forward(self, xj):
        return self._forward_model(self.model, xj)

    def _forward_model(self, model, xj):
        """Forward ``xj`` through an explicit model — the hook replica
        copies share with the live model, so a multi-input override (e.g.
        translation's tuple unpacking) applies to every replica."""
        return model(xj)

    def _num_samples(self, xj) -> int:
        return len(xj)

    # -- training ---------------------------------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    # -- accounting --------------------------------------------------------------
    def step_time(self) -> float:
        return self.plan.step_time()

    def extra_memory_elements(self) -> int:
        return self.plan.extra_memory_elements()

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        return self.plan.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.plan.load_state_dict(state)
