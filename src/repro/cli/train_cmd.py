"""``repro train`` — run one workload with any method/technique combination
and print the learning curve plus summary row.

This is the single-run workhorse behind Figures 4, 9, 10 and 17/18: pick a
workload preset, a pipeline method, and which of T1/T2/T3 to enable.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli._command import Command, add_common_run_args, add_workload_arg, make_workload
from repro.core import PipeMareConfig
from repro.pipeline import check_replica_count
from repro.viz import line_plot, sparkline


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    add_workload_arg(parser)
    add_common_run_args(parser)
    parser.add_argument(
        "--method", choices=["gpipe", "pipedream", "pipemare"], default="pipemare"
    )
    parser.add_argument(
        "--techniques", default="t1,t2",
        help="comma list from {t1,t2,t3,none} (pipemare only; default t1,t2)",
    )
    parser.add_argument(
        "--warmup-epochs", type=int, default=4, help="T3 synchronous epochs"
    )
    parser.add_argument(
        "--recompute-segment", type=int, default=None,
        help="activation recompute segment size (Appendix D)",
    )
    parser.add_argument(
        "--runtime", choices=["simulator", "async", "process", "socket"],
        default="simulator",
        help="pipeline backend: the sequential simulator, the concurrent "
        "thread-worker runtime, the multi-process shared-memory runtime, or "
        "the framed-socket runtime with worker registry and typed failure "
        "handling (all bit-identical trajectories; see README 'Runtime "
        "backends')",
    )
    parser.add_argument(
        "--overlap-boundary", choices=["on", "off"], default="on",
        help="concurrent runtimes only: overlap the optimizer boundary of "
        "step t with step t+1's pipeline fill via version-gated weight "
        "reads (default on; trajectories stay bit-identical either way; "
        "ignored by the simulator)",
    )
    parser.add_argument(
        "--granularity", choices=["layer", "sublayer"], default="layer",
        help="stage-graph slicing granularity for the concurrent runtimes: "
        "'sublayer' splits attention/FFN/norm-residual sub-chains into "
        "separate elements, so fine partitions run with strictly more "
        "workers than layers (trajectories stay bit-identical)",
    )
    parser.add_argument(
        "--replicas", type=int, default=1,
        help="hybrid data × pipeline parallelism: R complete pipeline "
        "replicas sharing one version clock, each training on its own "
        "shard of every minibatch, gradients folded into one optimizer "
        "step per minibatch (staleness is unchanged for any R; R=1 is "
        "plain pipeline parallelism, bit for bit)",
    )
    parser.add_argument(
        "--partition", choices=["even", "auto", "profile"], default="even",
        help="how weight units split into stages: the paper's even-by-count "
        "rule, the analytic flops/bytes balanced partition, or a "
        "micro-profiled balanced partition timed on a sample batch "
        "(see 'repro info --workload ... --stages N' for the table)",
    )
    parser.add_argument(
        "--autosave-every", type=int, default=None, metavar="N",
        help="crash-safe checkpointing: every N optimizer steps, write a "
        "rolling snapshot (atomic rename + per-array checksums + 'latest' "
        "pointer) into --autosave-dir; a killed run restarted with "
        "--resume continues bit-exactly from the last snapshot",
    )
    parser.add_argument(
        "--autosave-dir", default=None, metavar="DIR",
        help="snapshot directory for --autosave-every",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="load the newest snapshot from --autosave-dir before training "
        "(no-op if the directory is empty)",
    )
    parser.add_argument("--plot", action="store_true", help="ASCII learning curve")


def parse_techniques(spec: str, workload, warmup_epochs: int) -> PipeMareConfig:
    """Build a PipeMareConfig from a ``t1,t2,t3``-style list."""
    picked = {t.strip().lower() for t in spec.split(",") if t.strip()}
    unknown = picked - {"t1", "t2", "t3", "none"}
    if unknown:
        raise ValueError(f"unknown technique(s): {sorted(unknown)}")
    if "none" in picked and picked != {"none"}:
        raise ValueError("'none' cannot be combined with other techniques")
    if picked == {"none"}:
        return PipeMareConfig.naive_async()
    k = workload.default_anneal_steps()
    d = workload.tuned_decay
    return PipeMareConfig(
        use_t1="t1" in picked,
        anneal_steps=k,
        use_t2="t2" in picked,
        decay=d,
        use_t3="t3" in picked,
        warmup_steps=warmup_epochs * workload.steps_per_epoch if "t3" in picked else 0,
    )


_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def blas_threads_note(runtime: str, environ, cores: int) -> str | None:
    """The one-line warning for a concurrent runtime started with BLAS
    unpinned on a multi-core host: every pipeline worker then starts one
    BLAS thread per core and the workers fight each other's pools for the
    same cores (docs/ARCHITECTURE.md, "BLAS threads": 29.5 against 134
    microbatches/s on the 4×512 MLP, process backend, 2 cores).  ``None``
    when there is nothing to say."""
    if runtime == "simulator" or cores <= 1:
        return None
    if any(environ.get(var) for var in _BLAS_THREAD_VARS):
        return None
    return (
        f"note: --runtime {runtime} with BLAS threads unpinned on {cores} "
        "cores: each pipeline worker starts its own BLAS thread pool and "
        "they oversubscribe the host; export OPENBLAS_NUM_THREADS=1 (or "
        "OMP_NUM_THREADS / MKL_NUM_THREADS) before starting python"
    )


def _run(args: argparse.Namespace) -> int:
    workload = make_workload(args.workload)
    cfg = None
    if args.method == "pipemare":
        try:
            cfg = parse_techniques(args.techniques, workload, args.warmup_epochs)
        except ValueError as exc:
            print(exc)
            return 2

    if args.runtime not in workload.supported_runtimes():
        print(
            f"workload {workload.name!r} does not support --runtime "
            f"{args.runtime} (supported: {', '.join(workload.supported_runtimes())}); "
            "see README 'Runtime backends'"
        )
        return 2
    try:
        check_replica_count(args.replicas, model_name=workload.name)
    except ValueError as exc:
        print(exc)
        return 2
    if (args.autosave_every is not None) != (args.autosave_dir is not None):
        print("--autosave-every and --autosave-dir must be given together")
        return 2
    if args.resume and args.autosave_dir is None:
        print("--resume requires --autosave-every/--autosave-dir")
        return 2

    note = blas_threads_note(args.runtime, os.environ, _usable_cores())
    if note:
        print(note, file=sys.stderr)

    desc = cfg.describe() if cfg else "synchronous"
    print(
        f"workload={workload.name} method={args.method} config={desc} "
        f"runtime={args.runtime} epochs={args.epochs} stages="
        f"{args.stages if args.stages else workload.max_stages()} "
        f"granularity={args.granularity} partition={args.partition} "
        f"replicas={args.replicas}"
    )
    result = workload.run(
        method=args.method,
        pipemare=cfg,
        epochs=args.epochs,
        seed=args.seed,
        num_stages=args.stages,
        recompute_segment=args.recompute_segment,
        runtime=args.runtime,
        overlap_boundary=args.overlap_boundary == "on",
        granularity=args.granularity,
        partition=args.partition,
        replicas=args.replicas,
        autosave_every=args.autosave_every,
        autosave_dir=args.autosave_dir,
        resume=args.resume,
    )
    metric = result.history.series("eval_metric")
    losses = result.history.series("train_loss")
    print(f"\ntrain loss   {sparkline(losses)}")
    print(f"eval metric  {sparkline(metric)}")
    print(
        f"\nbest {workload.metric_name} = {result.best_metric:.3f}"
        f"   diverged = {result.diverged}"
    )
    if args.plot and metric:
        print()
        print(
            line_plot(
                {workload.metric_name: (list(range(len(metric))), metric)},
                title=f"{workload.name}: {desc}",
                ylabel=workload.metric_name,
                xlabel="epoch",
            )
        )
    return 1 if result.diverged else 0


COMMAND = Command("train", "run one workload end to end", _add_arguments, _run)
