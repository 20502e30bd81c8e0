"""The sequential pipeline-parallel training executor (the paper's simulator).

Semantics per minibatch t of N microbatches (§2.1):

1. For each microbatch j, every stage i's parameters are pointed at weight
   version ``v_fwd(i,t,j)`` before the forward pass, realising the Table 1
   forward delay exactly (see :mod:`repro.pipeline.delays`).
2. Before the backward pass, parameters are pointed at the method's
   backward weights: the stashed forward version (PipeDream), the current
   version (GPipe, PipeMare), or the T2-corrected extrapolation
   ``w − Δτ·δ`` (PipeMare + T2).
3. Microbatch gradients accumulate in ``Parameter.grad`` and the optimizer
   steps once per minibatch; the new weights become version t+1.

Because updates only land at minibatch boundaries, processing microbatches
sequentially (fwd_j then bkwd_j) is numerically identical to the interleaved
hardware schedule — all that matters is which version each phase reads,
which the delay profile pins down.  All of that version arithmetic lives in
the shared :class:`repro.pipeline.plan.StepPlan`;
:class:`repro.pipeline.runtime.AsyncPipelineRuntime` executes the *same*
plan concurrently and is differentially tested to match this simulator
bit for bit.

With ``recompute_segment`` set, a second forward pass regenerates
activations at the recompute-delayed weights before backward (Appendix D's
three-delay model); segment heads keep their originally cached inputs.
"""

from __future__ import annotations

import numpy as np

from repro.core import PipeMareConfig
from repro.nn.dropout import Dropout
from repro.nn.module import Module
from repro.optim import Optimizer, ParamGroup
from repro.optim.schedulers import LRSchedule
from repro.pipeline.delays import Method
from repro.pipeline.partition import Stage
from repro.pipeline.plan import PipelineBackend, ReplicaPlan, StepPlan, StepWeightCache


def param_groups_from_stages(stages: list[Stage]) -> list[ParamGroup]:
    """One optimizer param group per stage, in stage order — the layout
    both T1 and the executor rely on."""
    return [ParamGroup(params=list(s.params), name=f"stage{s.index}") for s in stages]


class PipelineExecutor(PipelineBackend):
    """Drives pipeline-parallel training of a model, one microbatch at a
    time (the simulator backend; see
    :class:`repro.pipeline.AsyncPipelineRuntime` for the concurrent one).

    Parameters
    ----------
    model, loss_fn:
        The model and a loss module (``forward(pred, target) -> float``,
        ``backward() -> grad``).
    optimizer:
        Must have one param group per stage in stage order (use
        :func:`param_groups_from_stages`).
    stages:
        Output of :func:`repro.pipeline.partition_model`.
    num_microbatches:
        N; the minibatch passed to :meth:`train_step` is split along axis 0.
    method:
        ``gpipe`` / ``pipedream`` / ``pipemare``.
    pipemare:
        Technique configuration (ignored for the synchronous baselines).
    base_schedule:
        Base learning rate ``α_base,k`` per optimizer step; ``None`` keeps
        the optimizer's constructor lr.
    grad_clip:
        Optional global-norm clipping threshold.
    recompute_segment:
        Segment size S for PipeMare Recompute (``None`` disables).
    num_replicas:
        R pipeline replicas for hybrid data × pipeline parallelism.  Every
        replica reads the same delayed weight versions from the shared
        store (identical staleness), computes gradients over its own
        minibatch shard (``_shard_minibatch``) with its own dropout stream,
        and the gradients fold in canonical replica order before the one
        shared optimizer step (see :class:`repro.pipeline.plan.ReplicaPlan`).
        R=1 is the original single-pipeline simulator, bit for bit.
    """

    def __init__(
        self,
        model: Module,
        loss_fn: Module,
        optimizer: Optimizer,
        stages: list[Stage],
        num_microbatches: int,
        method: Method | str = Method.PIPEMARE,
        pipemare: PipeMareConfig | None = None,
        base_schedule: LRSchedule | None = None,
        grad_clip: float | None = None,
        recompute_segment: int | None = None,
        partition_plan=None,
        num_replicas: int = 1,
    ):
        super().__init__(
            model,
            loss_fn,
            StepPlan(
                params=model.parameters(),
                optimizer=optimizer,
                stages=stages,
                num_microbatches=num_microbatches,
                method=method,
                pipemare=pipemare,
                base_schedule=base_schedule,
                grad_clip=grad_clip,
                recompute_segment=recompute_segment,
                partition_plan=partition_plan,
                num_replicas=num_replicas,
            ),
        )
        if num_replicas > 1:
            # Replica copies are pickle round-trips; a stream-mode dropout's
            # generator would be duplicated with it, making two replicas
            # draw *identical* masks — silently wrong statistics.  Counter
            # mode keys masks on the replica index instead.
            for m in model.modules():
                if isinstance(m, Dropout) and m.p > 0.0 and not m.counter_based:
                    raise ValueError(
                        "stream-mode (generator) dropout cannot run with "
                        "num_replicas > 1; use counter-based dropout "
                        "(Dropout(p, seed=..., layer_id=...))"
                    )
        self.replica_plan = ReplicaPlan(self.plan, model, loss_fn)
        # The simulator executes every wave itself, so it holds the one step
        # weight cache (all stages, all positions; replicas read the same
        # versions and share it).
        self._weights = StepWeightCache(self.plan)

    # -- weight loading -------------------------------------------------------
    def _load_all(self, weights_for_stage, stages: list[Stage] | None = None) -> None:
        for s, stage in enumerate(self.stages if stages is None else stages):
            stage.load(weights_for_stage(s))

    # -- training ---------------------------------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """Run one minibatch; returns the mean microbatch training loss
        (mean over all ``R × N`` microbatches when ``num_replicas > 1``)."""
        plan = self.plan
        weights = self._weights
        weights.begin_step()
        n = plan.num_microbatches
        sync = plan.is_sync_step()
        if plan.num_replicas == 1:
            xs, ys = self._split_minibatch(x, y, n)
            total = sum(self._num_samples(xj) for xj in xs)

            plan.begin_step()
            self._begin_deferred_grads()
            losses = []
            t = plan.t
            try:
                for j in range(n):
                    self._set_dropout_slot(j)
                    self._load_all(lambda s: plan.forward_weights(s, t, j, sync))
                    out = self._forward(xs[j])
                    losses.append(self.loss_fn(out, ys[j]))
                    grad = self.loss_fn.backward() * plan.grad_scale(self._num_samples(xs[j]), total)
                    if plan.recompute_active(sync):
                        # Counter-based dropout makes this second forward exact:
                        # the (step, microbatch) slot is unchanged, so the
                        # regenerated activations use the same masks the first
                        # forward drew.
                        self._load_all(lambda s: weights.recompute_weights(s, t, j))
                        self._forward(xs[j])  # regenerate caches at recompute weights
                    self._load_all(lambda s: weights.backward_weights(s, t, j, sync))
                    self.model.backward(grad)
            except BaseException:
                self._abort_deferred_grads()
                raise
            self._fold_deferred_grads()
            plan.finish_step(sync)
            return float(np.mean(losses))
        return self._train_step_replicated(x, y, sync)

    def _train_step_replicated(self, x, y, sync: bool) -> float:
        """The R > 1 minibatch: replicas run sequentially (replica 0 on the
        live model, then each copy), each over its own shard with the same
        delay arithmetic — wall-clock order is irrelevant because every
        wave's weights come from the version store and gradients fold in
        replica-index order regardless of completion order."""
        plan = self.plan
        weights = self._weights
        n = plan.num_microbatches
        shards_x, shards_y = self._shard_minibatch(x, y, plan.num_replicas)

        plan.begin_step()
        losses: list[float] = []
        t = plan.t
        for r in range(plan.num_replicas):
            rep = None if r == 0 else self.replica_plan.replicas[r - 1]
            model = self.model if rep is None else rep.model
            loss_fn = self.loss_fn if rep is None else rep.loss_fn
            stages = None if rep is None else rep.stages
            dropouts = self._counter_dropouts if rep is None else rep.counter_dropouts
            deferred = self._deferred_modules if rep is None else rep.deferred_modules
            xs, ys = self._split_minibatch(shards_x[r], shards_y[r], n)
            total = sum(self._num_samples(xj) for xj in xs)
            for m in deferred:
                m.enable_deferred_grads()
                for _, buf in m.deferred_grads():
                    buf.fill(0.0)
            try:
                for j in range(n):
                    for m in dropouts:
                        m.set_slot(t, j)
                    self._load_all(lambda s: plan.forward_weights(s, t, j, sync), stages)
                    out = self._forward_model(model, xs[j])
                    losses.append(loss_fn(out, ys[j]))
                    grad = loss_fn.backward() * plan.grad_scale(self._num_samples(xs[j]), total)
                    if plan.recompute_active(sync):
                        self._load_all(lambda s: weights.recompute_weights(s, t, j), stages)
                        self._forward_model(model, xs[j])
                    self._load_all(lambda s: weights.backward_weights(s, t, j, sync), stages)
                    model.backward(grad)
            except BaseException:
                for m in deferred:
                    m.disable_deferred_grads()
                raise
            for m in deferred:
                for p, buf in m.deferred_grads():
                    p.grad += buf
                m.disable_deferred_grads()
        self.replica_plan.fold_replica_grads()
        plan.finish_step(sync)
        return float(np.mean(losses))
