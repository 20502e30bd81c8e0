"""The four benchmark workloads.

Every workload trains with ``method="pipemare"`` and T1+T2 on, through
public API only, with product defaults for every runtime knob (overlapped
boundary, fused waves, natural worker count), so a PR that changes a
default shows up in the numbers.  All inputs — model-init seed, the four
distinct minibatches a step workload cycles, the synthetic dataset and
batch order of the lifecycle workload — are generated here from ``--seed``;
the program only ever sees arrays.

Why each workload exists is recorded in its ``why`` (copied into
``BENCHMARK.json``) and at length in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import PipeMareConfig
from repro.data import batch_iterator
from repro.experiments.workloads import make_image_workload, make_translation_workload
from repro.models import MLP
from repro.nn import (
    Conv2d,
    CrossEntropyLoss,
    GroupNorm,
    LayerNorm,
    Linear,
    MultiHeadAttention,
)
from repro.optim import SGD
from repro.pipeline import make_backend, partition_model
from repro.pipeline.executor import param_groups_from_stages
from repro.train import PipelineTrainer, evaluate_classifier

# Build order: both forking backends first, so worker processes are forked
# before the thread backend has started any driver-side thread.
BACKENDS = ("process", "socket", "thread", "simulator")
CONCURRENT = ("thread", "process", "socket")
RUNTIME_NAME = {"process": "process", "socket": "socket", "thread": "async",
                "simulator": "simulator"}
DISTINCT_BATCHES = 4


@dataclass
class Built:
    """One backend of one workload, ready to train."""

    executor: object
    model: object
    trainer: PipelineTrainer


@dataclass
class KernelProbe:
    """One ``nn`` op at the shape it has in a workload: ``make(rng)`` builds
    the module, ``args(rng)`` its forward arguments."""

    make: object
    args: object


def _rand(*shape):
    return lambda rng: (rng.normal(size=shape),)


def _attention_args(batch: int, length: int, d_model: int):
    def args(rng):
        x = rng.normal(size=(batch, length, d_model))
        return x, x, x, np.ones((batch, 1, 1, length), dtype=bool)

    return args


# The op at the shape of the workload where it dominates.  A workload whose
# model has the op overrides the entry with its own shape; one whose model
# lacks it keeps the reference entry, so every run carries the whole kernel
# ledger and an nn/ change is visible from any workload's traced run.
REFERENCE_KERNELS = {
    "linear": KernelProbe(lambda rng: Linear(512, 512, rng), _rand(48, 512)),
    "conv2d": KernelProbe(
        lambda rng: Conv2d(8, 8, 3, rng, padding=1, bias=False), _rand(4, 8, 16, 16)
    ),
    "attention": KernelProbe(
        lambda rng: MultiHeadAttention(32, 2, rng), _attention_args(4, 9, 32)
    ),
    "norm": KernelProbe(lambda rng: LayerNorm(32), _rand(4, 9, 32)),
}


class Workload:
    """Static description; :meth:`instantiate` generates the seeded inputs."""

    name = ""
    why = ""
    kind = "steps"            # "steps": a visit is a timed train_step loop
    num_microbatches = 0
    num_stages: int | None = None
    # Time-to-target factors as steps_to_target x N / mbps.  Step workloads
    # target a training-loss level on the cycled minibatches, the lifecycle
    # workload an eval accuracy.
    target_kind = "loss"
    target = 0.0
    autosave_every = 0
    kernels: dict = {}

    def kernel_probes(self) -> dict:
        return {**REFERENCE_KERNELS, **self.kernels}

    def instantiate(self, seed: int) -> "Instance":
        raise NotImplementedError


class Instance:
    """A workload with its inputs generated: ``batches`` are the minibatches
    the warm-up and the step visits cycle through."""

    workload: Workload
    seed: int
    batches: list

    def build(self, backend: str, autosave_dir: str) -> Built:
        raise NotImplementedError

    def fresh_model(self):
        """``(model, stages)`` — an untrained copy of the model under the
        partition every backend uses, for the isolated layer probes."""
        raise NotImplementedError

    def loss_fn(self):
        raise NotImplementedError

    def sample_inputs(self) -> tuple:
        """One microbatch of every external model input."""
        x = self.batches[0][0]
        n = self.workload.num_microbatches
        xs = x if isinstance(x, tuple) else (x,)
        return tuple(a[: len(a) // n] for a in xs)


# -- mlp_wide -------------------------------------------------------------------


class MlpWide(Workload):
    name = "mlp_wide"
    why = ("4x512 MLP, 4 workers: 3/4 of a step is Linear BLAS, transport <1%; "
           "kernel overlap shows here, hand-off work should not")
    num_microbatches = 8
    num_stages = 4
    dims = [512] * 4 + [10]
    batch = 384
    target = 1.5
    autosave_every = 2

    def instantiate(self, seed: int) -> "Instance":
        return _MlpInstance(self, seed)


class _MlpInstance(Instance):
    def __init__(self, workload: MlpWide, seed: int):
        self.workload = workload
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        w = workload
        self.batches = [
            (rng.normal(size=(w.batch, w.dims[0])), rng.integers(0, w.dims[-1], size=w.batch))
            for _ in range(DISTINCT_BATCHES)
        ]
        self.pool_x = np.concatenate([x for x, _ in self.batches])
        self.pool_y = np.concatenate([y for _, y in self.batches])
        self.test_x = rng.normal(size=(256, w.dims[0]))
        self.test_y = rng.integers(0, w.dims[-1], size=256)

    def fresh_model(self):
        model = MLP(self.workload.dims, np.random.default_rng(self.seed))
        return model, partition_model(model, self.workload.num_stages)

    def loss_fn(self):
        return CrossEntropyLoss()

    def build(self, backend: str, autosave_dir: str) -> Built:
        w = self.workload
        model, stages = self.fresh_model()
        opt = SGD(param_groups_from_stages(stages), lr=0.01, momentum=0.9)
        extra = {}
        if backend != "simulator":
            # Not a performance knob: a wedged pipe should fail the run in
            # seconds.  (Workloads built through ``bundle()`` cannot pass it
            # and keep the 30 s default; the visit watchdog covers them.)
            extra = dict(deadlock_timeout=10.0, done_grace=5.0)
        executor = make_backend(
            RUNTIME_NAME[backend], model, CrossEntropyLoss(), opt, stages,
            w.num_microbatches, "pipemare", pipemare=PipeMareConfig.t1_t2(128),
            **extra,
        )
        trainer = PipelineTrainer(
            executor,
            lambda rng: batch_iterator(self.pool_x, self.pool_y, w.batch, rng),
            lambda: evaluate_classifier(model, self.test_x, self.test_y),
            seed=self.seed,
            autosave_every=w.autosave_every,
            autosave_dir=autosave_dir,
        )
        return Built(executor, model, trainer)


# -- workloads built through the experiment factories ---------------------------


class _BundleInstance(Instance):
    """Image / translation workloads: the repo's workload factory builds the
    model, optimizer, schedule and trainer; the benchmark only picks sizes."""

    def __init__(self, workload: Workload, seed: int, factory_workload, batches):
        self.workload = workload
        self.seed = seed
        self.wl = factory_workload
        self.batches = batches

    def fresh_model(self):
        model = self.wl.build_model(self.seed)
        plan = self.wl.partition_plan(model, self.wl.resolve_stages(self.workload.num_stages))
        return model, plan.stages(model)

    def build(self, backend: str, autosave_dir: str) -> Built:
        b = self.wl.bundle(
            method="pipemare",
            pipemare=self.wl.default_config(),
            num_stages=self.workload.num_stages,
            seed=self.seed,
            runtime=RUNTIME_NAME[backend],
            autosave_every=self.workload.autosave_every,
            autosave_dir=autosave_dir,
        )
        return Built(b.executor, b.model, b.trainer)


class _ImageInstance(_BundleInstance):
    def __init__(self, workload: Workload, seed: int, **sizes):
        wl = make_image_workload("cifar", data_seed=seed, **sizes)
        it = batch_iterator(
            wl.data.train_x, wl.data.train_y, wl.batch_size,
            np.random.default_rng([seed, 0]),
        )
        super().__init__(workload, seed, wl, [next(it) for _ in range(DISTINCT_BATCHES)])

    def loss_fn(self):
        return CrossEntropyLoss()


def _image_kernels(micro: int, size: int) -> dict:
    return {
        "conv2d": KernelProbe(
            lambda rng: Conv2d(8, 8, 3, rng, padding=1, bias=False),
            _rand(micro, 8, size, size),
        ),
        "norm": KernelProbe(lambda rng: GroupNorm(2, 8), _rand(micro, 8, size, size)),
        "linear": KernelProbe(lambda rng: Linear(16, 10, rng), _rand(micro, 16)),
    }


class ResnetConv(Workload):
    name = "resnet_conv"
    why = ("16x16 ResNet, 3 workers: 3/4 of a step is np.einsum in nn/conv.py; "
           "conv-kernel and bytes-moved transport work shows here")
    num_microbatches = 8
    num_stages = 4
    # batch 32 (the issue proposed 64): at 64 a step is ~230 ms and the run
    # budget would leave the simulator under 30 timed steps.
    sizes = dict(image_size=16, channels_per_stage=(8, 16), batch_size=32,
                 num_microbatches=8)
    target = 2.1
    autosave_every = 8
    kernels = _image_kernels(4, 16)

    def instantiate(self, seed: int) -> Instance:
        return _ImageInstance(self, seed, **self.sizes)


class ResnetLifecycle(Workload):
    name = "resnet_lifecycle"
    why = ("a visit is PipelineTrainer.run(): 24 small steps, 2 crash-safe "
           "checkpoints, sync and eval; the only workload running train/ data/ io/")
    kind = "lifecycle"
    num_microbatches = 4
    num_stages = 4
    # 384 training images (default 512) make one epoch 24 steps, so a visit
    # lasts about as long as the step workloads' timed visits.
    sizes = dict(num_train=384)
    epochs_per_visit = 1
    target_kind = "accuracy"
    target = 30.0
    autosave_every = 12
    kernels = _image_kernels(4, 8)

    def instantiate(self, seed: int) -> Instance:
        return _ImageInstance(self, seed, **self.sizes)


class XfmrFine(Workload):
    name = "xfmr_fine"
    why = ("12-stage two-stream Transformer, 5 workers, AdamW: ~25k Python calls "
           "per step, no op above 11%; hand-off, GIL, framing and boundary dominate")
    num_microbatches = 8
    num_stages = None  # the preset's default: 12 stages
    target = 3.0
    autosave_every = 12
    kernels = {
        "linear": KernelProbe(lambda rng: Linear(32, 64, rng), _rand(4, 9, 32)),
    }

    def instantiate(self, seed: int) -> Instance:
        return _TranslationInstance(self, seed)


class _TranslationInstance(_BundleInstance):
    def __init__(self, workload: Workload, seed: int):
        wl = make_translation_workload("iwslt", data_seed=seed)
        saved = wl.task.rng
        wl.task.rng = np.random.default_rng([seed, 0])
        try:
            drawn = [wl.task.sample_batch(wl.batch_size) for _ in range(DISTINCT_BATCHES)]
        finally:
            wl.task.rng = saved
        batches = [((b.src, b.tgt_in), b.tgt_out) for b in drawn]
        super().__init__(workload, seed, wl, batches)

    def loss_fn(self):
        from repro.nn import SequenceCrossEntropyLoss

        return SequenceCrossEntropyLoss(
            pad_id=self.wl.task.pad_id, label_smoothing=self.wl.label_smoothing
        )


WORKLOADS = {w.name: w for w in (MlpWide(), ResnetConv(), XfmrFine(), ResnetLifecycle())}
