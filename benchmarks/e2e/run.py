#!/usr/bin/env python3
"""End-to-end benchmark: four backends x one workload, interleaved rounds.

    python3 benchmarks/e2e/run.py --workload NAME [--seed S] [--seconds T]
                                  [--trace 0|1] [--smoke] [--out PATH]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` (set-up
time, microbatches/s per backend, peak RSS) with no span recorded anywhere.
``--trace 1`` is a separate pass that wraps every call into the program in
a span, runs the isolated layer probes, writes a Chrome trace to
``benchmarks/e2e/out/trace_<workload>.json`` and reports the per-layer
metrics.  Either way every metric is printed by name with its unit, the
backends' outputs are checked against the simulator bit for bit, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code: 0 correct, 1 a step
failed or an output was wrong or something leaked, 2 the harness itself
broke, 3 the program (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

# One BLAS thread per kernel, set before numpy loads: per-stage compute must
# be single-threaded so the backends differ by pipeline overlap, not by
# BLAS-internal parallelism.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import harness
    import layers
    from spans import Tracer, median, percentile, tail_percentile
    from specs import BACKENDS, CONCURRENT, WORKLOADS
except ImportError as exc:
    print(f"benchmark cannot run: {exc} (is src/repro in this checkout?)", file=sys.stderr)
    raise SystemExit(3)

OUT_DIR = os.path.join(HERE, "out")
# AF_UNIX paths are capped at ~107 bytes; the socket backend nests two
# generated names under the temp dir.
MAX_TMP_PARENT = 60


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from the
    contract file — the single list of what this benchmark reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    return {
        group: {m["name"]: m["unit"] for m in contract[group]}
        for group in ("end_to_end", "per_layer")
    }


def steps_to_target(session: harness.Session) -> tuple[int, bool]:
    """Exact optimizer-step count (warm-up included) at which the bit-equal
    trajectory first meets the workload's target; ``(steps run, False)``
    when it never does within this run."""
    w = session.workload
    runs = [r for r in session.runs.values() if r.losses]
    if w.target_kind == "accuracy":
        evals = max((r.evals for r in runs), key=len)
        hit = next((steps for steps, metric in evals if metric >= w.target), None)
        total = evals[-1][0] if evals else 0
    else:
        losses = max((r.losses for r in runs), key=len)
        hit = next((i + 1 for i, loss in enumerate(losses) if loss <= w.target), None)
        total = len(losses)
    return (hit, True) if hit is not None else (total, False)


def end_to_end_metrics(session, setup_times) -> dict:
    n = session.workload.num_microbatches
    out = {"setup_s": median(setup_times), "peak_rss_mb": max(session.pss_mib)}
    for name, run in session.runs.items():
        samples = run.mbps(n, traced=False)
        out[f"mbps.{name}"] = median(samples) if samples else 0.0
    return out


def per_layer_metrics(session, probes: dict, traced_rounds: set, notes: list) -> dict:
    n = session.workload.num_microbatches
    cores = len(os.sched_getaffinity(0))
    kernel_ms = probes["stage_compute.kernel_ms_per_step"]
    ceiling = probes["plan.schedule_ceiling"]
    out = dict(probes)
    mbps = {b: median(r.mbps(n) or [0.0]) for b, r in session.runs.items()}

    def step_stats(prefix, suffix, run):
        samples = run.step_s or [0.0]
        p, tail = tail_percentile(samples)
        out[f"{prefix}.step_ms_p50{suffix}"] = percentile(samples, 50) * 1e3
        out[f"{prefix}.step_ms_tail{suffix}"] = tail * 1e3
        micro = sum(v.steps for v in run.visits) * n
        out[f"{prefix}.cpu_ms_per_mb{suffix}"] = (
            sum(v.cpu for v in run.visits) / micro * 1e3 if micro else 0.0
        )
        notes.append(f"{prefix}.step_ms_tail{suffix} is p{p} of {len(run.step_s)} steps")

    for b in CONCURRENT:
        run = session.runs[b]
        ex = run.built.executor
        stats = ex.stats
        step_stats("runtime", f".{b}", run)
        out[f"runtime.bubble_fraction.{b}"] = stats.bubble_fraction()
        out[f"runtime.transport_fraction.{b}"] = stats.transport_fraction()
        out[f"runtime.boundary_stall_fraction.{b}"] = stats.boundary_stall_fraction()
        out[f"runtime.commands_per_step.{b}"] = stats.commands_per_step()
        out[f"runtime.busy_ms_per_step.{b}"] = (
            sum(stats.total_busy) / stats.steps * 1e3 if stats.steps else 0.0
        )
        # per visit: one closing sync on the step workloads, every sync the
        # trainer issues (before each checkpoint and each eval) on lifecycle
        syncs = [v.sync for v in run.visits if v.traced]
        out[f"runtime.sync_ms.{b}"] = median(syncs or [0.0]) * 1e3
        out[f"runtime.build_ms.{b}"] = run.build_s * 1e3
        out[f"runtime.close_ms.{b}"] = run.close_s * 1e3
        out[f"runtime.speedup_vs_simulator.{b}"] = (
            mbps[b] / mbps["simulator"] if mbps["simulator"] else 0.0
        )
        # what the runtime adds over ideal compute on this host
        ideal = kernel_ms / min(ex.num_workers, cores, ceiling)
        out[f"runtime.residual_ms_per_step.{b}"] = out[f"runtime.step_ms_p50.{b}"] - ideal
    sim = session.runs["simulator"]
    step_stats("executor", "", sim)
    out["executor.residual_ms_per_step"] = out["executor.step_ms_p50"] - kernel_ms

    steps, reached = steps_to_target(session)
    out["train.steps_to_target"] = float(steps)
    if not reached:
        notes.append(f"train.steps_to_target: target not reached, censored at {steps} steps")
    for b in BACKENDS:
        out[f"train.time_to_target_s.{b}"] = steps * n / mbps[b] if mbps[b] else 0.0

    # Tracing cost: the same visits with and without inner spans.
    ratios = []
    for b, run in session.runs.items():
        on, off = run.mbps(n, traced=True), run.mbps(n, traced=False)
        if on and off:
            ratios.append(median(on) / median(off))
    out["trace.overhead_share"] = 1.0 - median(ratios) if ratios else 0.0
    self_times = session.tracer.self_times()
    for b in BACKENDS:
        visits = [s for s in session.tracer.named(f"visit.{b}") if s.step in traced_rounds]
        total = sum(s.duration for s in visits)
        out[f"trace.unattributed_share.{b}"] = (
            sum(self_times[s.id] for s in visits) / total if total else 0.0
        )
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=21.0,
                        help="wall clock spent in timed visits (all backends together)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: 2 short rounds (one traced), 1 set-up, "
                        "reports end-to-end and per-layer metrics together")
    parser.add_argument("--out", metavar="PATH", help="also write the full result as JSON")
    parser.add_argument("--inject-fault", metavar="BACKEND", choices=CONCURRENT,
                        help="self-test seam: doctor one recorded loss of BACKEND "
                        "before the correctness gate")
    return parser.parse_args(argv)


def report(args, session, metrics, units, checks: dict, notes: list, host: dict) -> dict:
    """Print every metric by name with its unit, the per-backend failure
    accounting, the hygiene checks and the host record; returns the extras
    ``--out`` adds to the result."""
    n = session.workload.num_microbatches
    workers = {b: getattr(r.built.executor, "num_workers", 1)
               for b, r in session.runs.items()}
    print(f"workload {session.workload.name}  seed {args.seed}  trace {args.trace}  "
          f"wall {checks['wall_s']:.1f} s")
    print(f"host: {host['usable_cores']} usable cores, BLAS pinned to 1 thread, "
          f"python {host['python']}, numpy {host['numpy']}, {host['blas']}")
    regime = "cores < workers: CPU is the shared resource, cpu_ms_per_mb predicts mbps"
    if host["usable_cores"] >= max(workers.values()):
        regime = "cores >= workers: the critical path predicts mbps"
    print(f"workers per backend: {workers}  ({regime})")
    pressure = checks["pressure"]
    noisy = pressure["before"] is not None and pressure["before"] > harness.NOISY_PRESSURE
    print(f"cpu pressure some avg10: before {pressure['before']} after {pressure['after']}"
          f"{'  NOISY (above %g)' % harness.NOISY_PRESSURE if noisy else ''}")
    for name in sorted(metrics):
        print(f"{name:<44s} {metrics[name]:>14.6g} {units[name]}")
    for b, r in session.runs.items():
        per_visit = " ".join(f"{v:.1f}" for v in r.mbps(n))
        print(f"steps_attempted.{b} {r.attempted}  steps_failed.{b} {r.failed}  "
              f"loss_mismatches.{b} {checks['mismatches'][b]}  mbps per visit: {per_visit}")
        if r.broken:
            print(f"  {b} stopped: {r.broken}")
    for key, value in checks["leaks"].items():
        print(f"{key} {value}")
    for note in notes:
        print(f"note: {note}")
    return dict(
        workload=session.workload.name, seed=args.seed, trace=args.trace,
        seconds=args.seconds, smoke=args.smoke, host=host, workers=workers,
        noisy=noisy, notes=notes, **checks,
        mbps_per_visit={b: r.mbps(n) for b, r in session.runs.items()},
    )


def run(args, tmp_root: str) -> int:
    workload = WORKLOADS[args.workload]
    declared = declared_metrics()
    traced_run = bool(args.trace) or args.smoke
    groups = [g for g, on in (("end_to_end", not args.trace), ("per_layer", traced_run)) if on]
    tracer = Tracer(traced_run)
    shm_before = set(os.listdir("/dev/shm"))
    host = harness.host_record(BLAS_PINS)
    pressure_before = harness.cpu_pressure()

    if args.smoke:
        rounds, traced_rounds, setups, probe_repeats = 2, {1}, (1, 1), 2
        budget, min_steps = 0.2 * rounds * len(BACKENDS), 1
    else:
        min_steps = harness.MIN_STEPS_PER_VISIT
        if args.trace:
            rounds, setups, probe_repeats = harness.TRACE_ROUNDS, (1, 1), 5
            traced_rounds = set(range(1, rounds, 2))
        else:
            rounds, traced_rounds, probe_repeats = harness.ROUNDS, set(), 0
            setups = harness.SETUP_REPEATS
        # --seconds buys ROUNDS rounds; a traced pass runs fewer rounds of
        # the same visit length
        budget = args.seconds * rounds / harness.ROUNDS

    started = time.perf_counter()
    attempted = failed = 0
    setup_times, first_losses = [], []
    probes: dict = {}
    notes: list[str] = []
    with tracer.span("workload"):
        # Set-up, several times over (more often where it is cheap, so every
        # workload spends about the same on it); the last one is measured on.
        while True:
            with tracer.span("setup", step=len(setup_times)):
                session = harness.set_up(workload, args.seed, tracer, tmp_root, min_steps)
            setup_times.append(session.setup_s)
            first_losses.append([r.losses[:1] for r in session.runs.values()])
            if len(setup_times) >= setups[1] or (
                len(setup_times) >= setups[0] and sum(setup_times) >= harness.SETUP_BUDGET_S
            ):
                break
            harness.tear_down(session)
            tried, lost = session.tally()
            attempted, failed = attempted + tried, failed + lost
            # Drop the discarded pools' memory before the next set-up forks:
            # a forked worker's RSS starts at its parent's.
            del session
            gc.collect()
        if any(f != first_losses[0] for f in first_losses):
            print("FAILED: repeated set-ups from one seed gave different first losses",
                  file=sys.stderr)
            failed += 1
        with tracer.span("warmup"):
            harness.warm_up(session, budget / rounds)
        harness.run_rounds(session, range(rounds), budget, traced_rounds)
        if traced_run:
            probes = layers.run_probes(session.inst, tracer, tmp_root, probe_repeats)
        with tracer.span("teardown"):
            harness.tear_down(session)
            leaks = harness.hygiene(session, shm_before)
    wall = time.perf_counter() - started

    if args.inject_fault:
        session.runs[args.inject_fault].losses[0] += 1.0
    mismatches = harness.gate(session)
    tried, lost = session.tally()
    attempted, failed = attempted + tried, failed + lost
    correct = failed == 0 and not any(leaks.values())

    metrics: dict = {}
    if "end_to_end" in groups:
        metrics.update(end_to_end_metrics(session, setup_times))
    if "per_layer" in groups:
        metrics.update(per_layer_metrics(session, probes, traced_rounds, notes))
        covered = sum(tracer.self_times().values())
        notes.append(f"span self times cover {covered / wall:.4f} of the pass's wall clock")
        if abs(covered / wall - 1.0) > 0.02:
            print("FAILED: span self times do not sum to the wall clock within 2 %",
                  file=sys.stderr)
            correct = False
        trace_path = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
        tracer.write_chrome_trace(trace_path, f"e2e {workload.name} seed {args.seed}")
        notes.append(f"trace written to {os.path.relpath(trace_path, ROOT)}")

    units = {name: unit for g in groups for name, unit in declared[g].items()}
    if set(units) != set(metrics):
        print(f"harness bug: emitted metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(units) - set(metrics))}, "
              f"undeclared {sorted(set(metrics) - set(units))}", file=sys.stderr)
        return 2

    checks = dict(
        wall_s=wall, leaks=leaks, mismatches=mismatches, setup_s=setup_times,
        pressure={"before": pressure_before, "after": harness.cpu_pressure()},
    )
    extras = report(args, session, metrics, units, checks, notes, host)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**result, **extras}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    # Temp files (autosave snapshots, the socket backend's UDS directory)
    # stay inside the checkout unless that would overflow a socket path.
    parent = OUT_DIR if len(OUT_DIR) <= MAX_TMP_PARENT else None
    tmp_root = tempfile.mkdtemp(prefix="e2e-", dir=parent)
    tempfile.tempdir = tmp_root
    try:
        with harness.watchdog(harness.RUN_WATCHDOG_S, "the whole run"):
            code = run(args, tmp_root)
    except BaseException:
        traceback.print_exc()
        harness.kill_children()
        code = 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        harness.stop_resource_tracker()
    return code


if __name__ == "__main__":
    sys.exit(main())
