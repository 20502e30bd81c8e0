"""Isolated per-layer probes: each times calls into one layer's public
functions, in the benchmark process, on the workload's real shapes and
parameter set.  Run only in a ``--trace 1`` pass, after the rounds, so they
never share the clock with an end-to-end measurement.

Every probe returns ``{metric name: value}``; units are declared in
``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

import numpy as np

from repro.pipeline import (
    Partitioner,
    SharedWeightMirror,
    ShmRing,
    TransportError,
    build_worker_graph,
    costmodel,
    stage_programs,
)
from repro.pipeline.net import Listener, connect, decode_arrays, encode_arrays
from repro.pipeline.plan import split_views

from harness import BackendRun, traced_trainer
from spans import Tracer, median, timeit
from specs import Instance

MS, US = 1e3, 1e6


def schedule_ceiling(method, workers: int, microbatches: int) -> float:
    """Total compute slots / critical-path slots of the executed schedule:
    the wall-clock speed-up over one worker that unlimited cores converge
    to.  Each op starts after its worker's previous op and its dataflow
    dependency (relaxed to a fixed point)."""
    programs = stage_programs(method, workers, microbatches)
    finish: dict[tuple[str, int, int], int] = {}
    for _ in range(workers):
        for s, ops in enumerate(programs):
            prev_end = 0
            for op, j in ops:
                if op == "F":
                    dep = ("F", s - 1, j) if s > 0 else None
                else:
                    dep = ("B", s + 1, j) if s < workers - 1 else None
                start = max(prev_end, finish.get(dep, 0) if dep else 0)
                finish[(op, s, j)] = prev_end = start + 1
    return sum(len(ops) for ops in programs) / max(finish.values())


def _nbytes(payload) -> int:
    parts = payload if isinstance(payload, (tuple, list)) else (payload,)
    return sum(np.asarray(p).nbytes for p in parts if p is not None)


# -- stage_compute ---------------------------------------------------------------


def probe_stage_compute(inst: Instance, repeats: int) -> tuple[dict, dict]:
    """Forward and backward of every worker's segments on one microbatch,
    run sequentially in graph order (what the runtime's workers execute,
    minus channels, weight-version loads and cache snapshots).  Also sizes
    the cross-worker payloads for the transport probes."""
    n = inst.workload.num_microbatches
    model, stages = inst.fresh_model()
    t0 = time.perf_counter()
    graph = build_worker_graph(model, stages)
    build_graph_s = time.perf_counter() - t0

    loss_fn = inst.loss_fn()
    x, y = inst.batches[0]
    ext = [split_views(a, n)[0] for a in (x if isinstance(x, tuple) else (x,))]
    y0 = split_views(y, n)[0]
    weights = [s.current() for s in stages]
    for w in graph.workers:
        w.enable_deferred()
        w.zero_deferred()
        w.load_weights(lambda s: weights[s])
        w.set_dropout_slot(0, 0)

    k = graph.num_workers
    fwd_runs, bwd_runs = [], []
    acts: dict[int, object] = {}
    grads: dict[int, object] = {}
    for _ in range(repeats + 1):
        fwd, bwd = [0.0] * k, [0.0] * k
        sink_grad = None
        for w in graph.workers:
            for seg in w.segments:
                ins = [ext[e.ext_index] if e.src is None else acts[e.index]
                       for e in seg.in_edges]
                t0 = time.perf_counter()
                out = seg.forward(ins)
                if seg.is_sink:
                    loss_fn(out, y0)
                    sink_grad = loss_fn.backward()
                fwd[w.index] += time.perf_counter() - t0
                if seg.out_edge is not None:
                    acts[seg.out_edge.index] = out
        for w in reversed(graph.workers):
            for seg in reversed(w.segments):
                g = sink_grad if seg.is_sink else grads[seg.out_edge.index]
                t0 = time.perf_counter()
                gins = seg.backward(g)
                bwd[w.index] += time.perf_counter() - t0
                for e, gi in zip(seg.in_edges, gins):
                    if e.src is not None:
                        grads[e.index] = gi
        fwd_runs.append(fwd)
        bwd_runs.append(bwd)
    # the first pass warms caches and is dropped
    fwd = [median(r[w] for r in fwd_runs[1:]) for w in range(k)]
    bwd = [median(r[w] for r in bwd_runs[1:]) for w in range(k)]
    both = [f + b for f, b in zip(fwd, bwd)]

    cross = graph.cross_edges()
    largest = max((acts[e.index] for e in cross), key=_nbytes)
    moved = sum(_nbytes(acts[e.index]) + _nbytes(grads[e.index]) for e in cross)
    metrics = {
        "stage_compute.fwd_ms_sum": sum(fwd) * MS,
        "stage_compute.bwd_ms_sum": sum(bwd) * MS,
        "stage_compute.fwd_ms_max": max(fwd) * MS,
        "stage_compute.bwd_ms_max": max(bwd) * MS,
        "stage_compute.kernel_ms_per_step": n * sum(both) * MS,
        "stage_compute.imbalance": max(both) / (sum(both) / k),
        "stage_compute.build_graph_ms": build_graph_s * MS,
        "transport.payload_kb": _nbytes(largest) / 1024.0,
        "transport.kb_per_step": n * moved / 1024.0,
    }
    return metrics, {"graph": graph, "model": model, "stages": stages, "payload": largest}


# -- nn --------------------------------------------------------------------------


def probe_kernels(inst: Instance, repeats: int) -> dict:
    """Forward and backward of the workload's dominant ops at their real
    shapes (see ``specs.REFERENCE_KERNELS`` for ops the model lacks)."""
    rng = np.random.default_rng([inst.seed, 1])
    out = {}
    for op, probe in inst.workload.kernel_probes().items():
        module = probe.make(rng)
        args = probe.args(rng)
        grad = rng.normal(size=module(*args).shape)
        module.backward(grad)
        fwd, bwd = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            module(*args)
            t1 = time.perf_counter()
            module.backward(grad)
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        out[f"nn.{op}_fwd_us"] = median(fwd) * US
        out[f"nn.{op}_bwd_us"] = median(bwd) * US
    return out


# -- train / data / checkpoint -----------------------------------------------------


def probe_lifecycle(probe: BackendRun, tracer: Tracer) -> dict:
    """One traced ``PipelineTrainer.run(epochs=1)`` on a fresh simulator
    build: what the train/, data/ and io/ layers cost around the steps."""
    trainer = probe.built.trainer
    ex = probe.built.executor
    with traced_trainer(probe, tracer), tracer.span("train.run") as root:
        trainer.run(epochs=1)
    kids = tracer.children(root)

    def spans(name):
        return [s.duration for s in kids if s.name == name]

    t0 = time.perf_counter()
    trainer.manager.load_latest(probe.built.model, ex.optimizer, ex)
    load_s = time.perf_counter() - t0
    return {
        "checkpoint.save_ms": median(spans("checkpoint.save")) * MS,
        "checkpoint.load_ms": load_s * MS,
        "checkpoint.kb": os.path.getsize(trainer.manager.latest_path()) / 1024.0,
        "train.eval_ms": median(spans("train.eval")) * MS,
        "train.overhead_ms_per_epoch": tracer.self_times()[root.id] * MS,
        "data.batch_us": median(spans("data.next_batch")) * US,
    }


# -- plan / optim / core / weight_store ---------------------------------------------


def probe_boundary(probe: BackendRun, inst: Instance, repeats: int) -> dict:
    """The driver's optimizer boundary, one call at a time, on the
    workload's real parameter set (a throwaway simulator build's plan)."""
    plan = probe.built.executor.plan
    rng = np.random.default_rng([inst.seed, 2])
    for p in plan.params:
        p.grad[...] = rng.normal(size=p.grad.shape) * 1e-3
    v = plan.store.latest_version
    old = [list(plan.store.weights(s, v)) for s in range(plan.num_stages)]
    step_s = timeit(lambda: plan.optimizer.step_detached(old), repeats)
    new = plan.optimizer.step_detached(old)
    t2_s = timeit(lambda: plan.corrector.update_all_arrays(old, new), repeats)
    push_s = timeit(lambda: plan.store.push_arrays(new), repeats)
    load_s = timeit(plan.store.load_latest, repeats)

    # the store's window is full now: steady-state residency
    resident = sum(
        a.nbytes
        for s in range(plan.num_stages)
        for ver in plan.store.resident_versions(s)
        for a in plan.store.weights(s, ver)
    ) + 8 * plan.extra_memory_elements()

    mirror = SharedWeightMirror(
        f"e2e{os.getpid():x}m", [[a.shape for a in stage] for stage in new],
        plan.history, with_velocity=True, create=True,
    )
    try:
        versions = itertools.count()
        publish_s = timeit(lambda: mirror.publish_version(next(versions), new), repeats)
    finally:
        mirror.unlink()

    x, y = inst.batches[0]
    arrays = (*x, y) if isinstance(x, tuple) else (x, y)
    n = inst.workload.num_microbatches
    split_s = timeit(lambda: [split_views(a, n) for a in arrays], repeats, number=20)
    return {
        "plan.split_us": split_s * US,
        "optim.step_us": step_s * US,
        "core.t2_update_us": t2_s * US,
        "weight_store.push_us": push_s * US,
        "weight_store.load_us": load_s * US,
        "weight_store.mirror_publish_us": publish_s * US,
        "weight_store.resident_mb": resident / 2**20,
    }


# -- waveprogram / partition / costmodel ---------------------------------------------


def probe_compile(probe: BackendRun, inst: Instance, info: dict, repeats: int) -> dict:
    plan = probe.built.executor.plan
    graph, model, stages = info["graph"], info["model"], info["stages"]
    n = inst.workload.num_microbatches
    k = graph.num_workers
    programs = stage_programs(plan.method, k, n)
    read_stages = [w.read_stages for w in graph.workers]
    fwd_peers = [set() for _ in range(k)]
    bwd_peers = [set() for _ in range(k)]
    for e in graph.cross_edges():
        fwd_peers[e.dst.worker].add(e.src.worker)
        bwd_peers[e.src.worker].add(e.dst.worker)
    fwd_peers = [sorted(s) for s in fwd_peers]
    bwd_peers = [sorted(s) for s in bwd_peers]

    def compile_():
        return plan.wave_programs(programs, read_stages, fwd_peers, bwd_peers, False)

    compile_s = timeit(compile_, repeats)
    compiled = compile_()

    even = Partitioner("even")
    plan_s = timeit(lambda: even.plan(model, len(stages)), repeats)
    t0 = time.perf_counter()
    costmodel.profile_unit_costs(model, inst.sample_inputs())
    profile_s = time.perf_counter() - t0

    # Predicted per-worker cost: analytic unit costs summed over each
    # worker's stages (a stage shared by several workers is split evenly).
    analytic = [u.cost for u in costmodel.analytic_unit_costs(model)]
    stage_costs = even.plan(model, len(stages)).stage_costs(analytic)
    sharers = [sum(s in w.stages for w in graph.workers) for s in range(len(stages))]
    per_worker = [sum(stage_costs[s] / sharers[s] for s in set(w.stages))
                  for w in graph.workers]
    return {
        "waveprogram.compile_ms": compile_s * MS,
        "waveprogram.blocks_per_step": float(sum(len(p.blocks) for p in compiled)),
        "waveprogram.waves_per_step": float(sum(p.num_waves for p in compiled)),
        "partition.plan_ms": plan_s * MS,
        "costmodel.profile_ms": profile_s * MS,
        "costmodel.predicted_imbalance": max(per_worker) / (sum(per_worker) / k),
        "plan.schedule_ceiling": schedule_ceiling(plan.method, k, n),
    }


# -- transport / net ----------------------------------------------------------------


def probe_transport(payload, tmp_root: str, repeats: int) -> dict:
    """Two endpoints in one process moving the workload's largest
    cross-worker activation: one hop through a shared-memory ring, the
    socket codec alone, and there-and-back over a Unix-domain socket
    (an echo thread is the peer)."""
    nbytes = _nbytes(payload)
    name = f"e2e{os.getpid():x}r"
    tx = ShmRing(name, slots=4, slot_bytes=nbytes + 4096, create=True, role="send")
    try:
        rx = ShmRing(name, slots=4, role="recv")
        try:
            def hop():
                tx.send_msg(payload, 0, 5.0)
                rx.recv_msg(5.0)

            ring_s = timeit(hop, repeats)
        finally:
            rx.close()
    finally:
        tx.unlink()  # closes too; the ring must still be mapped when it does

    encode_s = timeit(lambda: encode_arrays(payload, 0), repeats)
    body = encode_arrays(payload, 0)
    decode_s = timeit(lambda: decode_arrays(body), repeats)

    address = "uds:" + os.path.join(tmp_root, "probe.sock")
    listener = Listener(address)

    def echo():
        conn = listener.accept(5.0)
        try:
            while True:
                step, message = conn.recv_msg(5.0)
                conn.send_msg(message, step, 5.0)
        except TransportError:
            pass  # the client hung up: the probe is over
        finally:
            conn.close()

    peer = threading.Thread(target=echo, name="e2e-echo", daemon=True)
    peer.start()
    try:
        client = connect(address, timeout=5.0)
        try:
            def there_and_back():
                client.send_msg(payload, 0, 5.0)
                client.recv_msg(5.0)

            uds_s = timeit(there_and_back, repeats)
        finally:
            client.close()
    finally:
        peer.join(10.0)
        listener.close()
    return {
        "transport.ring_roundtrip_us": ring_s * US,
        "transport.ring_mb_per_s": nbytes / ring_s / 1e6,
        "net.encode_us": encode_s * US,
        "net.decode_us": decode_s * US,
        "net.uds_roundtrip_us": uds_s * US,
        "net.uds_mb_per_s": 2 * nbytes / uds_s / 1e6,
    }


def run_probes(inst: Instance, tracer: Tracer, tmp_root: str, repeats: int) -> dict:
    """Every isolated probe, each under its own span."""
    out = {}
    with tracer.span("probe.stage_compute"):
        metrics, info = probe_stage_compute(inst, repeats)
        out.update(metrics)
    with tracer.span("probe.nn"):
        out.update(probe_kernels(inst, 4 * repeats))
    with tracer.span("probe.build"):
        probe = BackendRun(
            "probe", inst.build("simulator", os.path.join(tmp_root, "probe")), set(), 0.0
        )
    with tracer.span("probe.lifecycle"):
        out.update(probe_lifecycle(probe, tracer))
    with tracer.span("probe.boundary"):
        out.update(probe_boundary(probe, inst, repeats))
    with tracer.span("probe.compile"):
        out.update(probe_compile(probe, inst, info, repeats))
    with tracer.span("probe.transport"):
        out.update(probe_transport(info["payload"], tmp_root, repeats))
    return out
