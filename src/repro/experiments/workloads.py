"""Workload builders: the CPU-scale stand-ins for the paper's four tasks.

=============== ======================= ==============================
paper task      stand-in                builder
=============== ======================= ==============================
CIFAR10/ResNet50   resnet_tiny + synthetic images   ``make_image_workload("cifar")``
ImageNet/ResNet50  wider images, more classes       ``make_image_workload("imagenet")``
IWSLT14/Transformer   transformer_tiny + reversal task   ``make_translation_workload("iwslt")``
WMT17/Transformer     shared-embedding variant            ``make_translation_workload("wmt")``
=============== ======================= ==============================

Each workload knows how to build a fresh (model, loss, optimizer, executor)
bundle for any pipeline method/config, plus its evaluation function and the
paper's target-metric rule (best-across-methods − 1.0 accuracy / 0.4 BLEU).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import PipeMareConfig
from repro.data import TranslationTask, batch_iterator, make_image_classification
from repro.models import ResNet, Transformer, transformer_tiny
from repro.nn import CrossEntropyLoss, SequenceCrossEntropyLoss
from repro.nn.module import Module
from repro.optim import SGD, AdamW, StepDecayLR, WarmupInverseSqrtLR
from repro.optim.schedulers import LRSchedule
from repro.pipeline import (
    AsyncPipelineRuntime,
    Method,
    ModelSpec,
    Partitioner,
    PipelineExecutor,
    check_replica_count,
    make_backend,
)
from repro.pipeline.plan import split_views
from repro.pipeline.executor import param_groups_from_stages
from repro.pipeline.partition import PartitionPlan, num_weight_units
from repro.train import PipelineTrainer, evaluate_classifier, evaluate_translation
from repro.train.pipeline_trainer import TrainResult


@dataclass
class WorkloadBundle:
    """One ready-to-train instance of a workload.  ``executor`` is any
    pipeline backend (sequential simulator, thread-worker async runtime, or
    the multi-process shared-memory runtime)."""

    model: Module
    executor: object
    trainer: PipelineTrainer
    num_stages: int


class _BaseWorkload:
    name: str = ""
    metric_name: str = ""
    target_slack: float = 0.0  # best-across-methods minus this = target
    optimizer_kind: str = "sgd"
    # Stage count used when the caller doesn't specify one.  ``None`` means
    # the finest granularity (one weight unit per stage).  Calibration note:
    # async tolerance of a model scales with its size — the paper's models
    # tolerate τ≈10 at 91–107 stages; our CPU-scale stand-ins tolerate the
    # same *relative* asynchrony at proportionally fewer stages.
    default_stages: int | None = None

    def resolve_stages(self, num_stages: int | None) -> int | None:
        return self.default_stages if num_stages is None else num_stages

    def sample_profile_inputs(self) -> tuple:
        """One small sample array per external model input — what the
        ``profile`` partition mode times stage-graph elements on."""
        raise NotImplementedError

    def partition_plan(
        self,
        model: Module,
        num_stages: int | None,
        granularity: str = "layer",
        partition: str = "even",
    ) -> PartitionPlan:
        """The workload's :class:`~repro.pipeline.partition.PartitionPlan`
        for the requested stage count / granularity / cost mode.

        Plans are cached per (partition, granularity, stages): profiling
        timers are nondeterministic, so every bundle of one workload —
        simulator and concurrent runtimes alike — must consume the *same*
        plan object or their stage boundaries (and hence trajectories)
        could silently diverge.  Costs depend only on parameter shapes,
        which are seed-independent, so the cache is safe across seeds.
        """
        cache = self.__dict__.setdefault("_plan_cache", {})
        key = (partition, granularity, num_stages)
        if key not in cache:
            sample = self.sample_profile_inputs() if partition == "profile" else None
            cache[key] = Partitioner(partition, granularity).plan(
                model, num_stages, sample_inputs=sample
            )
        return cache[key]

    def supported_runtimes(self) -> tuple[str, ...]:
        """Pipeline backends this workload can train on.  Every workload —
        including the two-stream Transformer, which slices through its
        stage-program graph (:mod:`repro.pipeline.stage_compute`) — runs on
        all four; the process and socket backends rebuild the model in each
        worker from a picklable :class:`~repro.pipeline.ModelSpec`."""
        return ("simulator", "async", "process", "socket")

    def max_stages(self) -> int:
        raise NotImplementedError

    def bundle(
        self,
        method: Method | str = Method.PIPEMARE,
        pipemare: PipeMareConfig | None = None,
        num_stages: int | None = None,
        seed: int = 0,
        recompute_segment: int | None = None,
        runtime: str = "simulator",
        overlap_boundary: bool | None = None,
        granularity: str = "layer",
        partition: str = "even",
        replicas: int = 1,
        autosave_every: int | None = None,
        autosave_dir: str | None = None,
    ) -> WorkloadBundle:
        raise NotImplementedError

    def run(
        self,
        method: Method | str = Method.PIPEMARE,
        pipemare: PipeMareConfig | None = None,
        epochs: int = 10,
        num_stages: int | None = None,
        seed: int = 0,
        recompute_segment: int | None = None,
        eval_every: int = 1,
        runtime: str = "simulator",
        overlap_boundary: bool | None = None,
        granularity: str = "layer",
        partition: str = "even",
        replicas: int = 1,
        autosave_every: int | None = None,
        autosave_dir: str | None = None,
        resume: bool = False,
    ) -> TrainResult:
        b = self.bundle(
            method, pipemare, num_stages, seed, recompute_segment, runtime,
            overlap_boundary, granularity, partition, replicas,
            autosave_every=autosave_every, autosave_dir=autosave_dir,
        )
        try:
            result = b.trainer.run(epochs, eval_every=eval_every, resume=resume)
        finally:
            if hasattr(b.executor, "close"):
                b.executor.close()
        result.meta["workload"] = self.name
        result.meta["runtime"] = runtime
        result.meta["replicas"] = replicas
        return result


class ImageWorkload(_BaseWorkload):
    """ResNet on synthetic images, SGD + momentum + step decay (Table 6)."""

    metric_name = "test_accuracy"
    target_slack = 1.0  # accuracy points
    optimizer_kind = "sgd"

    def __init__(
        self,
        name: str,
        num_train: int,
        num_test: int,
        num_classes: int,
        image_size: int,
        blocks_per_stage: tuple[int, ...],
        channels_per_stage: tuple[int, ...],
        lr: float,
        momentum: float,
        weight_decay: float,
        batch_size: int,
        num_microbatches: int,
        lr_drop_epochs: int,
        noise: float = 0.6,
        data_seed: int = 0,
        tuned_anneal_steps: int | None = None,
        tuned_decay: float = 0.5,
        default_stages: int | None = None,
    ):
        self.name = name
        self.tuned_anneal_steps = tuned_anneal_steps
        self.tuned_decay = tuned_decay
        self.default_stages = default_stages
        self.num_classes = num_classes
        self.blocks_per_stage = blocks_per_stage
        self.channels_per_stage = channels_per_stage
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.batch_size = batch_size
        self.num_microbatches = num_microbatches
        self.lr_drop_epochs = lr_drop_epochs
        self.data = make_image_classification(
            num_train=num_train,
            num_test=num_test,
            num_classes=num_classes,
            image_size=image_size,
            noise=noise,
            rng=np.random.default_rng(data_seed),
        )
        self.steps_per_epoch = len(self.data.train_x) // batch_size

    def build_model(self, seed: int) -> ResNet:
        return ResNet(
            np.random.default_rng(seed),
            num_classes=self.num_classes,
            blocks_per_stage=self.blocks_per_stage,
            channels_per_stage=self.channels_per_stage,
            norm="group",
        )

    def max_stages(self) -> int:
        return num_weight_units(self.build_model(0))

    def base_schedule(self) -> LRSchedule:
        return StepDecayLR(self.lr, self.lr_drop_epochs * self.steps_per_epoch, 0.1)

    def default_anneal_steps(self) -> int:
        """§3.1 rule of thumb: a quarter of the first fixed-LR phase.  The
        tuned value (from the Table 8-style sweep in
        ``experiments.sensitivity``) overrides it when present."""
        if self.tuned_anneal_steps is not None:
            return self.tuned_anneal_steps
        return max(1, self.lr_drop_epochs * self.steps_per_epoch // 4)

    def default_config(self, warmup_epochs: int = 0) -> PipeMareConfig:
        if warmup_epochs > 0:
            return PipeMareConfig.full(
                self.default_anneal_steps(),
                warmup_epochs * self.steps_per_epoch,
                decay=self.tuned_decay,
            )
        return PipeMareConfig.t1_t2(self.default_anneal_steps(), decay=self.tuned_decay)

    def sample_profile_inputs(self) -> tuple:
        micro = max(1, self.batch_size // self.num_microbatches)
        return (self.data.train_x[:micro],)

    def bundle(self, method=Method.PIPEMARE, pipemare=None, num_stages=None,
               seed=0, recompute_segment=None, runtime="simulator",
               overlap_boundary=None, granularity="layer",
               partition="even", replicas=1,
               autosave_every=None, autosave_dir=None) -> WorkloadBundle:
        check_replica_count(replicas, model_name=f"{self.name} ResNet")
        model = self.build_model(seed)
        loss = CrossEntropyLoss()
        plan = self.partition_plan(
            model, self.resolve_stages(num_stages), granularity, partition
        )
        stages = plan.stages(model)
        opt = SGD(
            param_groups_from_stages(stages),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        executor = make_backend(
            runtime, model, loss, opt, stages, self.num_microbatches, method,
            pipemare=pipemare, base_schedule=self.base_schedule(),
            recompute_segment=recompute_segment, overlap_boundary=overlap_boundary,
            granularity=granularity, partition_plan=plan, num_replicas=replicas,
        )

        def batch_fn(rng):
            return batch_iterator(
                self.data.train_x, self.data.train_y, self.batch_size, rng
            )

        def eval_fn():
            return evaluate_classifier(model, self.data.test_x, self.data.test_y)

        trainer = PipelineTrainer(
            executor, batch_fn, eval_fn, seed=seed,
            autosave_every=autosave_every, autosave_dir=autosave_dir,
        )
        return WorkloadBundle(model, executor, trainer, len(stages))


class TranslationWorkload(_BaseWorkload):
    """Transformer on the reversal task, AdamW + warmup/inverse-sqrt
    (Table 7).

    Runs on all four pipeline backends: the two-stream encoder/decoder
    dataflow slices through the stage-program graph
    (:meth:`repro.models.Transformer.pipeline_graph`), and training-mode
    dropout (``dropout > 0``) uses counter-based masks so every backend
    derives identical draws (see :mod:`repro.nn.dropout`).
    """

    metric_name = "bleu"
    target_slack = 0.4  # BLEU points
    optimizer_kind = "adamw"

    def __init__(
        self,
        name: str,
        vocab_size: int,
        num_layers: int,
        share_embeddings: bool,
        lr: float,
        warmup_steps: int,
        weight_decay: float,
        label_smoothing: float,
        grad_clip: float | None,
        batch_size: int,
        num_microbatches: int,
        batches_per_epoch: int,
        eval_size: int = 128,
        max_len: int = 9,
        data_seed: int = 0,
        tuned_anneal_steps: int | None = None,
        tuned_decay: float = 0.1,
        default_stages: int | None = None,
        dropout: float = 0.0,
    ):
        self.name = name
        self.dropout = dropout
        self.tuned_anneal_steps = tuned_anneal_steps
        self.tuned_decay = tuned_decay
        self.default_stages = default_stages
        self.vocab_size = vocab_size
        self.num_layers = num_layers
        self.share_embeddings = share_embeddings
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.weight_decay = weight_decay
        self.label_smoothing = label_smoothing
        self.grad_clip = grad_clip
        self.batch_size = batch_size
        self.num_microbatches = num_microbatches
        self.batches_per_epoch = batches_per_epoch
        self.steps_per_epoch = batches_per_epoch
        self.task = TranslationTask(
            vocab_size=vocab_size, max_len=max_len, rng=np.random.default_rng(data_seed)
        )
        self.eval_pairs = self.task.fixed_eval_set(eval_size)

    def _model_kwargs(self, seed: int) -> dict:
        kwargs = dict(
            vocab=self.vocab_size,
            share_embeddings=self.share_embeddings,
            num_layers=self.num_layers,
            dropout=self.dropout,
        )
        if self.dropout > 0:
            kwargs["dropout_seed"] = seed  # counter-based masks: runtime-safe
        return kwargs

    def build_model(self, seed: int) -> Transformer:
        return transformer_tiny(np.random.default_rng(seed), **self._model_kwargs(seed))

    def model_spec(
        self,
        seed: int,
        num_stages: int | None,
        plan: PartitionPlan | None = None,
    ) -> ModelSpec:
        """Factory-based spec for process workers: replicas rebuild from the
        constructor recipe instead of a pickled snapshot, so only shapes and
        deterministic attributes (dropout layer ids) matter.  ``plan``
        carries a non-even partition so every replica rebuilds the driver's
        exact stage boundaries."""
        return ModelSpec(
            factory="repro.models.transformer:transformer_tiny",
            args=(np.random.default_rng(seed),),
            kwargs=self._model_kwargs(seed),
            num_stages=num_stages,
            plan=plan,
        )

    def sample_profile_inputs(self) -> tuple:
        saved = self.task.rng
        self.task.rng = np.random.default_rng(0)
        try:
            b = self.task.sample_batch(max(2, self.batch_size // self.num_microbatches))
        finally:
            self.task.rng = saved
        return (b.src, b.tgt_in)

    def max_stages(self) -> int:
        return num_weight_units(self.build_model(0))

    def base_schedule(self) -> LRSchedule:
        return WarmupInverseSqrtLR(self.lr, self.warmup_steps)

    def default_anneal_steps(self) -> int:
        """§3.1 rule of thumb: 5× the linear LR warmup steps (tuned value
        overrides when present)."""
        if self.tuned_anneal_steps is not None:
            return self.tuned_anneal_steps
        return 5 * self.warmup_steps

    def default_config(self, warmup_epochs: int = 0) -> PipeMareConfig:
        if warmup_epochs > 0:
            return PipeMareConfig.full(
                self.default_anneal_steps(),
                warmup_epochs * self.steps_per_epoch,
                decay=self.tuned_decay,
            )
        return PipeMareConfig.t1_t2(self.default_anneal_steps(), decay=self.tuned_decay)

    def bundle(self, method=Method.PIPEMARE, pipemare=None, num_stages=None,
               seed=0, recompute_segment=None, runtime="simulator",
               overlap_boundary=None, granularity="layer",
               partition="even", replicas=1,
               autosave_every=None, autosave_dir=None) -> WorkloadBundle:
        if runtime not in self.supported_runtimes():
            raise ValueError(
                f"unknown runtime {runtime!r} for translation workloads "
                f"(supported: {', '.join(self.supported_runtimes())})"
            )
        check_replica_count(replicas, model_name=f"{self.name} Transformer")
        model = self.build_model(seed)
        loss = SequenceCrossEntropyLoss(
            pad_id=self.task.pad_id, label_smoothing=self.label_smoothing
        )
        plan = self.partition_plan(
            model, self.resolve_stages(num_stages), granularity, partition
        )
        stages = plan.stages(model)
        opt = AdamW(
            param_groups_from_stages(stages),
            lr=self.lr,
            betas=(0.9, 0.98),
            weight_decay=self.weight_decay,
        )
        common = dict(
            pipemare=pipemare, base_schedule=self.base_schedule(),
            grad_clip=self.grad_clip, recompute_segment=recompute_segment,
            partition_plan=plan, num_replicas=replicas,
        )
        if runtime == "simulator":
            executor: object = _TranslationExecutor(
                model, loss, opt, stages, self.num_microbatches, method, **common
            )
        else:
            common["overlap_boundary"] = overlap_boundary
            common["granularity"] = granularity
            if runtime in ("process", "socket"):
                common["backend"] = runtime
                common["model_spec"] = self.model_spec(seed, len(stages), plan)
            executor = _TranslationRuntime(
                model, loss, opt, stages, self.num_microbatches, method, **common
            )
        task = self.task

        def batch_fn(rng):
            saved = task.rng
            task.rng = rng
            batches = [task.sample_batch(self.batch_size) for _ in range(self.batches_per_epoch)]
            task.rng = saved
            # pipeline executor consumes (x, y); pack (src, tgt_in) as x
            return [((b.src, b.tgt_in), b.tgt_out) for b in batches]

        def eval_fn():
            return evaluate_translation(model, task, self.eval_pairs)

        trainer = PipelineTrainer(
            executor, batch_fn, eval_fn, seed=seed,
            autosave_every=autosave_every, autosave_dir=autosave_dir,
        )
        return WorkloadBundle(model, executor, trainer, len(stages))


class _TranslationBatching:
    """Microbatch plumbing for (src, tgt_in) sample tuples.  All pipeline
    semantics come from the shared :class:`~repro.pipeline.plan.StepPlan`;
    the same overrides work against any backend (the concurrent runtimes
    transpose the tuples into per-graph-input streams themselves)."""

    def _split_minibatch(self, x, y, n):  # type: ignore[override]
        src, tgt_in = x
        if len(src) < n:
            raise ValueError(f"batch of {len(src)} cannot form {n} microbatches")
        xs = list(zip(split_views(src, n), split_views(tgt_in, n)))
        return xs, split_views(y, n)

    def _shard_minibatch(self, x, y, r):  # type: ignore[override]
        # Hybrid replicas shard the (src, tgt_in) tuple the same way the
        # microbatch split does: per-replica (src, tgt_in) shard tuples.
        src, tgt_in = x
        xs = list(zip(split_views(src, r), split_views(tgt_in, r)))
        return xs, split_views(y, r)

    def _forward_model(self, model, xj):  # type: ignore[override]
        # Overriding the model-explicit hook (not _forward) makes the tuple
        # unpacking apply to every pipeline replica, not just the live model.
        return model(*xj)

    def _num_samples(self, xj):  # type: ignore[override]
        return len(xj[0])


class _TranslationExecutor(_TranslationBatching, PipelineExecutor):
    """Sequential simulator over (src, tgt_in) samples."""


class _TranslationRuntime(_TranslationBatching, AsyncPipelineRuntime):
    """Concurrent runtime (thread or process workers) over (src, tgt_in)
    samples: the Transformer slices through its two-stream stage graph."""


# -- factories ----------------------------------------------------------------

# Calibrated so that (as in the paper): synchronous training is comfortably
# stable and reaches high quality; naive asynchronous training fails or badly
# underperforms; T1(+T2[+T3]) recovers synchronous quality.  The tuned K and
# D values come from the Table 8-style sweeps in experiments.sensitivity.
_IMAGE_PRESETS = {
    "cifar": dict(
        num_train=512, num_test=256, num_classes=10, image_size=8,
        blocks_per_stage=(2, 2), channels_per_stage=(8, 16),
        lr=0.05, momentum=0.9, weight_decay=5e-4,
        batch_size=16, num_microbatches=4, lr_drop_epochs=8, noise=1.0,
        tuned_anneal_steps=128, tuned_decay=0.5,
    ),
    "imagenet": dict(
        num_train=768, num_test=256, num_classes=16, image_size=8,
        blocks_per_stage=(2, 2, 2), channels_per_stage=(8, 16, 16),
        lr=0.05, momentum=0.9, weight_decay=1e-4,
        batch_size=16, num_microbatches=4, lr_drop_epochs=8, noise=0.9,
        tuned_anneal_steps=128, tuned_decay=0.5,
    ),
    "resnet152": dict(
        num_train=512, num_test=256, num_classes=10, image_size=8,
        blocks_per_stage=(3, 3, 3), channels_per_stage=(8, 16, 16),
        lr=0.05, momentum=0.9, weight_decay=5e-4,
        batch_size=16, num_microbatches=4, lr_drop_epochs=8, noise=1.0,
        tuned_anneal_steps=128, tuned_decay=0.5,
    ),
}

_TRANSLATION_PRESETS = {
    "iwslt": dict(
        vocab_size=32, num_layers=2, share_embeddings=False,
        lr=3e-3, warmup_steps=40, weight_decay=1e-4, label_smoothing=0.1,
        grad_clip=25.0, batch_size=32, num_microbatches=8, batches_per_epoch=24,
        tuned_anneal_steps=200, tuned_decay=0.1, default_stages=12,
    ),
    "wmt": dict(
        vocab_size=32, num_layers=2, share_embeddings=True,
        lr=3e-3, warmup_steps=40, weight_decay=0.0, label_smoothing=0.1,
        grad_clip=None, batch_size=32, num_microbatches=8, batches_per_epoch=24,
        tuned_anneal_steps=200, tuned_decay=0.1, default_stages=12,
    ),
}


def make_image_workload(preset: str = "cifar", **overrides) -> ImageWorkload:
    """Build the CIFAR10 / ImageNet / ResNet152 stand-in workload."""
    if preset not in _IMAGE_PRESETS:
        raise ValueError(f"unknown image preset {preset!r} (have {sorted(_IMAGE_PRESETS)})")
    kwargs = dict(_IMAGE_PRESETS[preset])
    kwargs.update(overrides)
    return ImageWorkload(name=preset, **kwargs)


def make_translation_workload(preset: str = "iwslt", **overrides) -> TranslationWorkload:
    """Build the IWSLT14 / WMT17 stand-in workload."""
    if preset not in _TRANSLATION_PRESETS:
        raise ValueError(
            f"unknown translation preset {preset!r} (have {sorted(_TRANSLATION_PRESETS)})"
        )
    kwargs = dict(_TRANSLATION_PRESETS[preset])
    kwargs.update(overrides)
    return TranslationWorkload(name=preset, **kwargs)
