"""One worker loop, one bring-up: both halves of the worker protocol.

Every concurrent backend — threads, shared-memory processes, socket
processes — runs the same :class:`Worker`: one bootstrap
(:meth:`Worker.from_init`), one step wrapper (:meth:`Worker.step`, the only
call site of the wave-block interpreter :func:`_execute_program`) and one
serve loop (:meth:`Worker.serve`) over a single tagged command vocabulary:

============  ==========================  ===================================
command       fields                      effect
============  ==========================  ===================================
``step``      seq, t, sync, scales,       run one minibatch's wave program;
              ext, ys                     reply one ``done`` report (plus an
                                          early ``losses`` report from the
                                          sink worker)
``pstate``    state                       load driver-side persistent state
                                          (checkpoint restore, replacement)
``resync``    version                     fence on a republished weight
                                          window (``mirror.await_reset``)
``fence``     token                       reply ``("fenced", w, token)`` —
                                          FIFO proof that every earlier
                                          command has drained
``rewire``    spec                        re-dial the channels shared with a
                                          replaced neighbour
                                          (``chans.rewire``)
``shutdown``  —                           leave the serve loop
============  ==========================  ===================================

Only two seams differ between backends, and both are arguments:

* the **channel set** — a :class:`~repro.pipeline.transport.Channels`
  subclass moving edge payloads (queues / shared-memory rings / framed
  sockets);
* **where gradients go back** — ``export_grads``: ``None`` for thread
  workers, which accumulate in place into the driver's live parameters, or
  a callable for workers that own a private model slice (the process
  backend writes the :class:`~repro.pipeline.transport.SharedGradMailbox`,
  the socket backend returns them inside the done report, whose frame
  carries array memory out of band — see ``net._obj_chunks``).

Commands arrive through ``recv()`` and replies leave through ``send(msg)``
— two plain callables, so tests drive the loop with in-memory lists.
Worker → driver messages are ``("done", report)`` with ``report = (worker,
step_seq, kind, busy, transport, stall, payload)`` and kind in {"ok",
"error", "deadlock", "losses", "ready", "init_error"}; an ``ok`` payload is
``(losses | None, persistent_state | None, grads | None, lanes)``.

The driver half lives here too, so the message formats have one home:
:class:`_WorkerPoolBase` builds the ``init`` payload and the ``step``
command, waits for ``ready``, parks and folds done reports, and
:func:`reap` ends worker processes.  The pools in
:mod:`repro.pipeline.runtime` and :mod:`repro.pipeline.net` only add how
workers are started and how bytes reach them.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import queue
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.nn import arena as nn_arena
from repro.pipeline.delays import Method
from repro.pipeline.plan import StepWeightCache, WorkerPlanMirror
from repro.pipeline.schedule import stage_programs
from repro.pipeline.stage_compute import (
    ModelSpec,
    WorkerCompute,
    WorkerGraph,
    build_worker_graph,
)
from repro.pipeline.transport import (
    TransportClosed,
    TransportError,
    TransportTimeout,
    pack_lanes,
    unpack_lanes,
)
from repro.pipeline.waveprogram import WaveProgram


class PipelineDeadlockError(RuntimeError):
    """A worker waited longer than ``deadlock_timeout`` for an activation or
    gradient that never arrived — the schedule's dataflow stalled."""


# Test seam: when set, every worker's channel set is passed through this
# hook before use, letting the fault-injection harness wrap transports with
# drop/delay/duplicate/disconnect behaviour.  With the default fork start
# method, child processes inherit a monkeypatched value.
_channel_hook = None


def _picklable_exc(exc: BaseException) -> BaseException:
    """Exceptions cross the done queue by pickle; anything that cannot make
    the trip is flattened to a RuntimeError carrying the formatted
    traceback."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        )


def _report(w, seq, kind, busy=0.0, xfer=0.0, stall=0.0, payload=None) -> tuple:
    return ("done", (w, seq, kind, busy, xfer, stall, payload))


# -- wave programs -------------------------------------------------------------


def _build_programs(
    method: Method, num_workers: int, num_microbatches: int, recompute: bool
) -> dict[bool, list[list[tuple[str, int]]]]:
    """Worker programs, straight off the occupancy grids: the schedule
    module's Figure 1 cartoons, executed for real.  Keyed by the step's
    sync flag — GPipe-style fill/drain for synchronous steps (T3 warmup;
    for the GPipe method ``is_sync_step()`` is always True), the method's
    own interleaved schedule otherwise."""
    return {
        True: stage_programs(Method.GPIPE, num_workers, num_microbatches, recompute=False),
        False: stage_programs(method, num_workers, num_microbatches, recompute=recompute),
    }


def _graph_recv_peers(graph: WorkerGraph) -> tuple[list[list[int]], list[list[int]]]:
    """Per-worker producer sets for the fusion compiler's cross-worker
    boundary rule: ``fwd_peers[w]`` are the workers whose forward/recompute
    waves feed ``w`` activations, ``bwd_peers[w]`` those whose backward
    waves feed it gradients (gradients flow dst → src along each edge)."""
    fwd: list[set[int]] = [set() for _ in range(graph.num_workers)]
    bwd: list[set[int]] = [set() for _ in range(graph.num_workers)]
    for e in graph.cross_edges():
        fwd[e.dst.worker].add(e.src.worker)
        bwd[e.src.worker].add(e.dst.worker)
    return [sorted(s) for s in fwd], [sorted(s) for s in bwd]


def _build_wave_programs(
    method: Method,
    resolver,
    graph: WorkerGraph,
    num_microbatches: int,
    recompute: bool,
    fuse: bool,
) -> dict[bool, list[WaveProgram]]:
    """Compile :func:`_build_programs`'s wave schedules into per-worker
    :class:`~repro.pipeline.waveprogram.WaveProgram` command blocks, keyed
    by the step's sync flag.  Thread pools build this once on the driver;
    process and socket workers rebuild the identical dict from their
    resolver mirror (same arithmetic, same deterministic graph), so no
    compiled program ever crosses a process boundary."""
    programs = _build_programs(method, graph.num_workers, num_microbatches, recompute)
    read_stages = [w.read_stages for w in graph.workers]
    fwd_peers, bwd_peers = _graph_recv_peers(graph)
    return {
        sync: resolver.wave_programs(
            programs[sync], read_stages, fwd_peers, bwd_peers, sync, fuse
        )
        for sync in (True, False)
    }


def _execute_program(
    compute: WorkerCompute,
    program: "WaveProgram",
    weights: StepWeightCache,
    t: int,
    sync: bool,
    chans,
    loss_fn,
    ext,
    ys,
    scales,
    losses,
    gate_timeout: float,
    on_losses=None,
) -> tuple[float, float, list[tuple[int, float, float, float]]]:
    """Run one worker's compiled :class:`~repro.pipeline.waveprogram.WaveProgram`
    for minibatch ``t``, one fused block at a time.

    Identical for all backends: only ``chans`` (queue-, ring- or
    socket-backed) and the resolver behind ``weights`` (driver
    :class:`StepPlan` or a worker's :class:`WorkerPlanMirror`) differ;
    ``weights`` is the worker's own :class:`StepWeightCache`, which serves
    the backward and recompute loads.  Each op walks the worker's segments
    in graph order (forward) or reverse (backward); same-worker edges hand
    payloads off through a local dict, cross-worker edges through the
    channel of that edge.

    Every **block** is version-gated at entry: the compiler guarantees no
    wave inside the block requires a version newer than the entry gate
    (``max(0, t - gate_delay)``), so one wait admits the whole block — the
    admission rule that lets a step run while the previous step's optimizer
    boundary is still in flight.  Unfused programs have one wave per block,
    reproducing the historical per-wave gate exactly.  Weight re-pointing
    is skipped where the compiler proved the previous wave in the block
    loaded the same versions (``WaveBlock.loads``); dropout slots, cache
    snapshots and arena pinning (``begin_wave``/``release_wave``) remain
    per-wave, so trajectories are bit-for-bit unchanged.

    ``on_losses`` (sink worker only) fires once the last forward wave wrote
    its loss — the signal that lets the driver return step t's training
    loss while t's backward half (and the next step) are still draining.

    Returns ``(busy, stall, lanes)``: total compute seconds (channel waits
    and payload copies excluded), total version-gate wait seconds, and one
    ``(num_waves, busy, stall, xfer)`` lane per executed block — the
    coarsened done-report detail.  ``busy``/``stall`` equal the lane sums
    by construction.
    """
    resolver = weights.resolver
    snapshots: dict[int, list[dict]] = {}
    grads: dict[int, np.ndarray] = {}
    recompute = resolver.recompute_active(sync)
    busy = 0.0
    stall = 0.0
    lanes: list[tuple[int, float, float, float]] = []
    f_total = program.num_forwards
    f_done = 0

    def run_wave(kind: str, j: int, load: bool) -> None:
        """One forward-style pass (op F on "act", op R on "rec")."""
        nonlocal busy, f_done
        chans.begin_wave(j)
        local: dict[int, object] = {}
        prepared = False
        for seg in compute.segments:
            ins = []
            for e in seg.in_edges:
                if e.src is None:
                    ins.append(ext[e.ext_index][j])
                elif e.local:
                    ins.append(local.pop(e.index))
                else:
                    ins.append(chans.recv(kind, e.index))
            t0 = time.perf_counter()
            if not prepared:
                if load:
                    if kind == "act":
                        compute.load_weights(
                            lambda s: resolver.forward_weights(s, t, j, sync)
                        )
                    else:
                        compute.load_weights(
                            lambda s: weights.recompute_weights(s, t, j)
                        )
                compute.set_dropout_slot(t, j)
                prepared = True
            out_edge = seg.out_edge
            if out_edge is not None and not out_edge.local and chans.can_reserve:
                # In-ring compute: let the segment's last module write its
                # output directly into a reserved transport slot; send()
                # recognises the reserved view and publishes without a copy.
                reserve = (
                    lambda shape, dtype, _k=kind, _e=out_edge.index:
                    chans.reserve(_k, _e, shape, dtype)
                )
                out = seg.forward(ins, reserve)
            else:
                out = seg.forward(ins)
            if seg.is_sink and kind == "act":
                losses[j] = loss_fn(out, ys[j])
                g = loss_fn.backward()
                sg = nn_arena.empty(g.shape, np.result_type(g, scales[j]))
                np.multiply(g, scales[j], out=sg)
                grads[j] = sg
            busy += time.perf_counter() - t0
            if out_edge is not None:
                if out_edge.local:
                    local[out_edge.index] = out
                else:
                    chans.send(kind, out_edge.index, out)
        if kind == "rec" or not recompute:
            t0 = time.perf_counter()
            snapshots[j] = compute.cache_state()
            busy += time.perf_counter() - t0
        if kind == "act":
            f_done += 1
            if on_losses is not None and f_done == f_total:
                on_losses()

    def run_backward(j: int, load: bool) -> None:
        nonlocal busy
        chans.begin_wave(j)
        local: dict[int, object] = {}
        restored = False
        for seg in reversed(compute.segments):
            if seg.is_sink:
                g = grads.pop(j)
            elif seg.out_edge.local:
                g = local.pop(seg.out_edge.index)
            else:
                g = chans.recv("grad", seg.out_edge.index)
            t0 = time.perf_counter()
            if not restored:
                compute.load_cache_state(snapshots.pop(j))
                if load:
                    compute.load_weights(
                        lambda s: weights.backward_weights(s, t, j, sync)
                    )
                restored = True
            gins = seg.backward(g)
            busy += time.perf_counter() - t0
            for e, gi in zip(seg.in_edges, gins):
                if e.src is None:
                    continue
                if e.local:
                    local[e.index] = gi
                else:
                    chans.send("grad", e.index, gi)
        # Microbatch j is finished on this worker: pinned transport views
        # (its activations, recompute inputs and gradients) can be acked.
        chans.release_wave(j)

    for block in program.blocks:
        busy0, stall0, xfer0 = busy, stall, chans.xfer_seconds()
        if block.gate_delay is not None:
            v = max(0, t - block.gate_delay)
            if v > resolver.store.latest_version:
                t0 = time.perf_counter()
                resolver.wait_version(v, gate_timeout)
                stall += time.perf_counter() - t0
        for (op, j), load in zip(block.ops, block.loads):
            if op == "F":
                run_wave("act", j, load)
            elif op == "R":
                run_wave("rec", j, load)
            else:  # "B"
                run_backward(j, load)
        lanes.append((
            len(block.ops), busy - busy0, stall - stall0,
            chans.xfer_seconds() - xfer0,
        ))
    return busy, stall, lanes


# -- the worker ----------------------------------------------------------------


class Worker:
    """One pipeline worker: its model slice, resolver, compiled programs and
    channel set, plus the step wrapper and serve loop every backend runs.

    Thread pools construct it directly over the driver's live objects
    (``export_grads=None``: gradients accumulate in place, and the driver
    owns gradient zeroing and persistent state); process and socket workers
    build it from the picklable ``init`` payload with :meth:`from_init`.
    """

    def __init__(
        self,
        w: int,
        compute: WorkerCompute,
        resolver,
        programs: dict[bool, list[WaveProgram]],
        loss_fn,
        chans,
        num_microbatches: int,
        gate_timeout: float,
        export_grads=None,
    ):
        self.w = w
        self.compute = compute
        self.resolver = resolver
        # Private to this worker even when ``resolver`` is the plan every
        # thread worker shares — see StepWeightCache.
        self.weights = StepWeightCache(resolver, compute.read_positions)
        self.programs = programs
        self.loss_fn = loss_fn  # sink worker only
        self.chans = chans if _channel_hook is None else _channel_hook(chans, w)
        self.num_microbatches = num_microbatches
        self.gate_timeout = gate_timeout
        self.export_grads = export_grads
        self._ships_pstate = export_grads is not None and compute.has_persistent_state()

    @classmethod
    def from_init(cls, w: int, init: dict, open_transport) -> "Worker":
        """The worker-side bootstrap: construct everything locally from the
        picklable ``init`` payload (see :meth:`_WorkerPoolBase._worker_init`)
        — model replica via :class:`ModelSpec`, partition and worker graph
        (both verified against the driver's), a resolver over the weight
        mirror, the compiled wave programs and the seeded persistent state.
        ``open_transport(graph)`` supplies the backend's two seams plus the
        weight source: ``(mirror, chans, export_grads)``."""
        model, stages = init["model_spec"].build()
        if [list(s.names) for s in stages] != init["stage_names"]:
            raise ValueError(
                f"worker {w}: model spec rebuilt a different partition than "
                f"the driver's (stage parameter names differ)"
            )
        graph = build_worker_graph(
            model, stages,
            granularity=init["granularity"], max_workers=init["max_workers"],
        )
        if graph.num_workers != init["k"] or graph.edge_spec() != init["edges"]:
            raise ValueError(
                f"worker {w}: model spec rebuilt a different worker graph "
                f"than the driver's ({graph.num_workers} workers, edges "
                f"{graph.edge_spec()!r} vs {init['edges']!r})"
            )
        compute = graph.workers[w]
        # The replica only ever runs sliced steps, so tied modules stay in
        # deferred-gradient mode for its whole lifetime (the driver's own
        # modules are scoped per step by PipelineBackend instead).
        compute.enable_deferred()
        mirror, chans, export_grads = open_transport(graph)
        spec = init["resolver_spec"]
        resolver = WorkerPlanMirror(spec, mirror)
        n = init["num_microbatches"]
        # Compiled locally from the resolver mirror — identical arithmetic
        # and deterministic graph ⇒ identical fused blocks to the driver's.
        programs = _build_wave_programs(
            Method(spec.method), resolver, graph, n,
            spec.recompute_segment is not None, init["fuse_waves"],
        )
        # The driver's *current* persistent state (BatchNorm running
        # stats): a factory spec rebuilds a fresh model, whose pristine
        # stats must not clobber stats that already evolved driver-side.
        if init["pstate"] is not None:
            compute.load_persistent_state(init["pstate"])
        loss_fn = pickle.loads(init["loss_pickle"]) if init["loss_pickle"] else None
        return cls(
            w, compute, resolver, programs, loss_fn, chans, n,
            init["deadlock_timeout"], export_grads,
        )

    def step(self, send, seq: int, t: int, sync: bool, scales, ext, ys) -> tuple:
        """Run one ``step`` command and return its done report.  Whatever
        happens, nothing from this step stays pinned in the channels: an
        aborted step must not starve producers."""
        compute, chans = self.compute, self.chans
        chans.step = seq
        losses = [0.0] * self.num_microbatches
        busy = stall = 0.0
        kind, payload = "ok", None
        xfer0 = chans.xfer_seconds()
        # Step seq's slabs are recycled when step seq+2 begins, matching
        # the two-in-flight driver window.
        self._arena.begin_program(seq)
        # Nothing extrapolated for an earlier command (the previous step,
        # or this one before a retry / resync / restore) may be served now.
        self.weights.begin_step()
        on_losses = None
        if self.loss_fn is not None:
            def on_losses():
                # Early-loss report: the driver can return this step's
                # training loss before the backward half drains.
                send(_report(self.w, seq, "losses", payload=list(losses)))
        try:
            if self.export_grads is not None:
                for b in compute.bindings:
                    for p in b.params:
                        p.grad.fill(0.0)
                compute.zero_deferred()
            busy, stall, lanes = _execute_program(
                compute, self.programs[bool(sync)][self.w], self.weights, t,
                sync, chans, self.loss_fn, ext, ys, scales, losses,
                self.gate_timeout, on_losses,
            )
            payload = (
                losses if self.loss_fn is not None else None,
                compute.persistent_state() if self._ships_pstate else None,
                self.export_grads(compute, seq) if self.export_grads else None,
                pack_lanes(lanes),
            )
        except TransportTimeout as exc:
            kind, payload = "deadlock", str(exc)
        except BaseException as exc:  # noqa: BLE001 — relayed to driver
            kind, payload = "error", _picklable_exc(exc)
        finally:
            chans.release_all()
        return _report(
            self.w, seq, kind, busy, chans.xfer_seconds() - xfer0, stall, payload
        )

    def serve(self, recv, send) -> None:
        """Serve commands until ``shutdown``, or until the driver is gone
        (``recv``/``send`` raising EOFError or a transport error).  An
        unknown command tag is a protocol bug and raises."""
        # Each worker owns an arena; it is thread-local, so it is installed
        # here, on the thread that will allocate from it.
        self._arena = nn_arena.Arena()
        nn_arena.set_current(self._arena)
        while True:
            try:
                cmd = recv()
            except (EOFError, TransportClosed):
                return
            tag = cmd[0]
            if tag == "shutdown":
                return
            if tag not in ("step", "pstate", "resync", "fence", "rewire"):
                raise TransportError(
                    f"worker {self.w}: unknown command {tag!r} on the control channel"
                )
            try:
                if tag == "step":
                    send(self.step(send, *cmd[1:]))
                elif tag == "pstate":
                    self.compute.load_persistent_state(cmd[1])
                elif tag == "resync":
                    # Checkpoint restore: fence on the republished window so
                    # a stale (higher) latest can never satisfy a gate
                    # against the restored timeline.
                    self.resolver.store.await_reset(cmd[1], self.gate_timeout)
                elif tag == "fence":
                    # FIFO on the control channel: reaching this proves every
                    # step command queued before it has run (or aborted).
                    send(("fenced", self.w, cmd[1]))
                else:
                    try:
                        self.chans.rewire(cmd[1], recv, send)
                    except BaseException as exc:  # noqa: BLE001 — reported
                        # Fatal for this worker; the driver falls back to a
                        # generation respawn.
                        send(_report(self.w, 0, "init_error", payload=_picklable_exc(exc)))
                        return
            except TransportError:
                return  # the driver went away mid-reply


def run_worker(w: int, init: dict, recv, send, open_transport) -> None:
    """Lifetime of one process-hosted worker: bootstrap, report ``ready``
    (or ``init_error``), serve, release.  ``open_transport(graph, stack)``
    opens the backend's mirror and channels, registering their ``close`` on
    ``stack`` so a partially opened transport is released too."""
    with contextlib.ExitStack() as stack:
        try:
            worker = Worker.from_init(w, init, lambda graph: open_transport(graph, stack))
        except BaseException as exc:  # noqa: BLE001 — reported to driver
            with contextlib.suppress(TransportError):
                send(_report(w, 0, "init_error", payload=_picklable_exc(exc)))
            return
        try:
            send(_report(w, 0, "ready"))
        except TransportError:
            return  # the driver went away during bring-up
        worker.serve(recv, send)


# -- the driver half ------------------------------------------------------------


def _default_start_method() -> str:
    """fork where the platform offers it (cheap, inherits the loaded NumPy),
    else spawn.  Workers rebuild their state from picklable specs either
    way, so the start method is a pure performance knob."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def reap(procs, timeout: float = 2.0) -> None:
    """End worker processes: give them ``timeout`` to exit on their own
    (they were sent ``shutdown`` or lost their control channel), terminate
    the stragglers, and wait for those too."""
    procs = [p for p in procs if p is not None]
    for proc in procs:
        proc.join(timeout=timeout)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=timeout)


@dataclass
class _StepResult:
    losses: list[float]
    busy: list[float]
    transport: list[float]
    stall: list[float]
    commands: int = 0
    reports: int = 0
    lanes: list = field(default_factory=list)


class _WorkerPoolBase:
    """Shared driver-side issue/collect machinery of the three pools.

    A step is **issued** (commands broadcast; workers may begin as soon as
    their version gates allow) and later **collected** (all done reports
    gathered) as two separate driver actions, so the scheduler can slide
    the previous step's optimizer boundary between them — that gap is the
    whole overlapped-boundary mechanism.  At most one step is issued and
    uncollected at a time; what overlaps it is the *driver's* boundary
    work for the step before.

    The step-sequence tag of a done report guards the queue against residue
    from aborted steps: stale tags are discarded, a tag from a later
    in-flight step is parked.  ``_collect`` gathers all workers' reports
    into locals and raises on failure **without mutating any runtime
    state**, which is what lets :meth:`AsyncPipelineRuntime.train_step`
    commit stats atomically for completed steps only.

    Subclasses provide ``_get_done(timeout)`` (next report, ``queue.Empty``
    on expiry), ``_send(w, cmd)`` and ``close()``; pools whose workers live
    in other processes also call :meth:`_describe_workers` and keep their
    processes in ``_procs``.
    """

    kind: str = ""

    def __init__(self, graph: WorkerGraph, plan, deadlock_timeout: float, done_grace: float):
        self.graph = graph
        self.driver_workers = graph.workers
        self.plan = plan
        self.num_workers = graph.num_workers
        self.deadlock_timeout = deadlock_timeout
        self.done_grace = done_grace
        self.wedged = False
        self._seq = 0  # step sequence; tags commands, done reports, mailbox
        # Issued-but-uncollected step sequences, oldest first.  With two
        # steps in flight, done reports for step t+1 can land while the
        # driver is still collecting step t; they are parked in _buffered
        # instead of being treated as protocol violations.
        self._issued: deque[int] = deque()
        self._buffered: list = []
        self._early_losses: dict[int, list] = {}
        # External model inputs are routed per step to exactly the workers
        # whose graph segments consume them.
        self._ext_needs = [graph.ext_needs(w) for w in range(self.num_workers)]
        self._procs: list = []

    # -- what a worker in another process is told ------------------------------
    def _describe_workers(
        self, stages, loss_fn, model_spec: ModelSpec, granularity, max_workers, fuse_waves
    ) -> None:
        """Record what every out-of-process worker is told at bring-up
        (the part of ``init`` that does not depend on the worker index)."""
        self.stages = stages
        self.fuse_waves = fuse_waves
        self._stage_shapes = [[tuple(p.shape) for p in s.params] for s in stages]
        self._init_common = {
            "k": self.num_workers,
            "num_microbatches": self.plan.num_microbatches,
            "stage_shapes": self._stage_shapes,
            "stage_names": [list(s.names) for s in stages],
            "edges": self.graph.edge_spec(),
            "resolver_spec": self.plan.resolver_spec(),
            "model_spec": model_spec,
            "granularity": granularity,
            "max_workers": max_workers,
            "fuse_waves": fuse_waves,
            "deadlock_timeout": self.deadlock_timeout,
        }
        self._loss_pickle = pickle.dumps(loss_fn)

    def _worker_init(self, w: int, **transport) -> dict:
        """Worker ``w``'s ``init`` payload: the shared description plus the
        driver's current persistent state for its slice, the loss (sink
        only) and the backend's ``transport`` coordinates."""
        compute = self.driver_workers[w]
        return {
            **self._init_common,
            "loss_pickle": self._loss_pickle if w == self.num_workers - 1 else b"",
            "pstate": (
                compute.persistent_state() if compute.has_persistent_state() else None
            ),
            **transport,
        }

    def _step_command(self, w: int, t, sync, ext, ys, scales) -> tuple:
        """Worker ``w``'s ``step`` command for the newest issued sequence:
        only the external inputs its segments consume, targets to the sink."""
        return (
            "step", self._seq, t, sync, scales,
            {i: ext[i] for i in self._ext_needs[w]},
            ys if w == self.num_workers - 1 else None,
        )

    # -- failure detection -----------------------------------------------------
    def _dead_procs(self):
        for w, proc in enumerate(self._procs):
            if proc is not None and not proc.is_alive() and proc.exitcode != 0:
                yield w, (
                    f"worker process {proc.name} died with exit code {proc.exitcode}"
                )

    def _peer_failure(self) -> str | None:
        """Why a worker will never report (killed, segfaulted), if one won't;
        threads cannot die silently."""
        for _, why in self._dead_procs():
            return f"{why} before reporting back"
        return None

    def _peer_error(self, dead: str) -> BaseException:
        """The typed error a dead peer surfaces as: the shared-memory pools
        report a deadlock, the socket pool overrides this with
        :class:`~repro.pipeline.registry.WorkerLostError`."""
        return PipelineDeadlockError(dead)

    def _poll(self, get, deadline: float, expired: BaseException):
        """One item from ``get(timeout)``, failing fast on dead peers and
        raising ``expired`` once ``deadline`` (monotonic) has passed."""
        while True:
            try:
                return get(0.2)
            except (queue.Empty, TransportTimeout):
                dead = self._peer_failure()
                if dead is not None:
                    raise self._peer_error(dead) from None
                if time.monotonic() > deadline:
                    raise expired from None

    def _await_ready(self, workers, timeout: float) -> None:
        """Block until every worker in ``workers`` rebuilt its slice and
        opened its transport, so spec/partition mismatches fail at
        construction.  Reports from other workers are residue of an aborted
        step (in-place replacement) and are discarded."""
        waiting = set(workers)
        deadline = time.monotonic() + timeout
        while waiting:
            w, _, kind, _, _, _, payload = self._poll(
                self._get_done, deadline,
                TransportTimeout(f"workers {sorted(waiting)} did not come up in time"),
            )
            if kind == "init_error":
                raise payload
            if kind == "ready":
                waiting.discard(w)

    # -- done reports ----------------------------------------------------------
    def _get_done(self, timeout: float):
        raise NotImplementedError

    def _next_done(self, deadline: float):
        """One done message.  A worker that will never report wedges the
        pool: don't reuse it, but close() can still deliver shutdown
        commands / terminate stragglers."""
        try:
            return self._poll(
                self._get_done, deadline,
                PipelineDeadlockError(
                    f"pipeline stalled: a worker did not finish within "
                    f"{self.deadlock_timeout + self.done_grace:.0f}s"
                ),
            )
        except BaseException:
            self.wedged = True
            raise

    def _take_done(self, seq: int, deadline: float):
        """Next done message relevant to step ``seq``: a parked one if
        available, otherwise fresh off the queue."""
        for i, msg in enumerate(self._buffered):
            if msg[1] <= seq:
                return self._buffered.pop(i)
        return self._next_done(deadline)

    def _collect(
        self, seq: int
    ) -> tuple[list[float], list[float], list[float], dict[int, object]]:
        k = self.num_workers
        busys = [0.0] * k
        xfers = [0.0] * k
        stalls = [0.0] * k
        extras: dict[int, object] = {}
        errors: list[tuple[int, BaseException]] = []
        deadlocks: list[tuple[int, str]] = []
        got = 0
        while got < k:
            # Each report gets its own full timeout window: a worker whose
            # final (secondary) channel wait starts late in the step must
            # still get to report its TransportTimeout, otherwise the real
            # worker exception already collected would be masked by a
            # spurious wedge.
            deadline = time.monotonic() + self.deadlock_timeout + self.done_grace
            msg = self._take_done(seq, deadline)
            w, msg_seq, kind, busy, xfer, stall, payload = msg
            if kind == "losses":
                # Early-loss report from a sink worker; never a done count.
                if msg_seq >= seq:
                    self._early_losses[msg_seq] = payload
                continue
            if msg_seq < seq:
                continue  # residue from an aborted step — discard
            if msg_seq > seq:
                # A later in-flight step finished a worker before this one
                # drained; park the report for that step's collect.
                self._buffered.append(msg)
                continue
            got += 1
            busys[w] = busy
            xfers[w] = xfer
            stalls[w] = stall
            if kind == "error":
                errors.append((w, payload))
            elif kind == "deadlock":
                deadlocks.append((w, payload))
            else:
                extras[w] = payload
        for s in [s for s in self._early_losses if s <= seq]:
            del self._early_losses[s]
        if errors:
            # Real exceptions outrank the secondary starvation timeouts they
            # cause in neighbouring workers.
            raise errors[0][1]
        if deadlocks:
            raise PipelineDeadlockError(
                f"worker {deadlocks[0][0]} reported: {deadlocks[0][1]}"
            )
        return busys, xfers, stalls, extras

    # -- scheduler surface -----------------------------------------------------
    def _send(self, w: int, cmd: tuple) -> None:
        raise NotImplementedError

    def _push_pstate(self, w: int) -> None:
        """Send worker ``w`` the driver's persistent state for its slice
        (e.g. restored BatchNorm running stats).  Command channels are
        FIFO, so it lands before any subsequent step command."""
        compute = self.driver_workers[w]
        if compute.has_persistent_state():
            self._send(w, ("pstate", compute.persistent_state()))

    def issue(self, t, sync, ext, ys, scales, num_microbatches) -> int:
        """Broadcast one step's commands; workers start as their version
        gates allow.  Returns the step's sequence tag; must eventually be
        balanced by exactly one :meth:`collect` (steps collect in issue
        order)."""
        self._seq += 1
        self._issued.append(self._seq)
        for w in range(self.num_workers):
            self._send(w, self._step_command(w, t, sync, ext, ys, scales))
        return self._seq

    def collect(self) -> _StepResult:
        """Gather the oldest issued step's done reports and fold what they
        carry back into the driver: persistent state into the driver's
        model slices, report-borne gradients into ``Parameter.grad``."""
        k = self.num_workers
        busys, xfers, stalls, extras = self._collect(self._issued.popleft())
        for w in sorted(extras):
            _, pstate, grads, _ = extras[w]
            if pstate is not None:
                self.driver_workers[w].load_persistent_state(pstate)
            # Each worker owns disjoint (stage, position) coordinates, so
            # the fold order cannot matter; sorted for determinism anyway.
            for s, positions, arrays in grads or ():
                params = self.stages[s].params
                for pos, arr in zip(positions, arrays):
                    params[pos].grad[...] = arr
        lanes = [unpack_lanes(extras[w][3]) for w in range(k)]
        blocks = sum(len(lane) for lane in lanes)
        return _StepResult(
            losses=list(extras[k - 1][0]), busy=busys, transport=xfers,
            stall=stalls, commands=blocks, reports=blocks, lanes=lanes,
        )

    def await_losses(self, seq: int) -> list | None:
        """Block until the sink worker of issued step ``seq`` has finished
        every forward wave, and return that step's microbatch losses — the
        early-return signal that lets the driver hand the caller step t's
        loss while t's backward half (and a second in-flight step) are
        still draining.  Returns ``None`` if the step failed or stalled
        instead; the caller then collects normally to surface the error."""
        if seq in self._early_losses:
            return self._early_losses.pop(seq)
        deadline = time.monotonic() + self.deadlock_timeout + self.done_grace
        while True:
            # A parked failure report for this step means no losses are
            # coming; let collect() surface the real error.
            for msg in self._buffered:
                if msg[1] == seq and msg[2] in ("error", "deadlock"):
                    return None
            try:
                msg = self._get_done(0.2)
            except queue.Empty:
                if self._peer_failure() is not None:
                    return None
                if time.monotonic() > deadline:
                    return None
                continue
            if msg[2] == "losses":
                if msg[1] == seq:
                    return msg[6]
                if msg[1] > seq:
                    self._early_losses[msg[1]] = msg[6]
                continue
            self._buffered.append(msg)

    def publish_plan_state(self) -> None:
        """Called after the optimizer boundary; process pools push the new
        weight version (and T2 velocities) into the shared mirror."""

    def full_resync(self) -> None:
        """Called after a checkpoint restore rewrote the version window."""

    def stop_workers(self) -> None:
        """Stop this pool's workers but leave any shared segments other
        pools still use alive — what :meth:`ReplicaGroup.drop_replica`
        calls on a degraded replica.  Pools without shared segments just
        close."""
        self.close()

    def close(self) -> None:
        raise NotImplementedError
