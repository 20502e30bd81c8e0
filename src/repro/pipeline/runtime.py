"""Concurrent asynchronous pipeline runtime.

Where :class:`repro.pipeline.PipelineExecutor` *simulates* pipeline delay by
processing microbatches one at a time, this runtime actually runs the
pipeline: every stage slice executes on its own worker, following the
interleaved occupancy schedule from :mod:`repro.pipeline.schedule` for real
— 1F1B for the asynchronous methods, fill/drain for GPipe and T3 warmup
steps.  Weight versions are read at the exact ``v_fwd`` / ``v_bkwd`` /
recompute slots the delay profile prescribes, so the per-step losses and
final weights are **bit-for-bit identical** to the sequential simulator
(enforced by ``tests/test_runtime_equivalence.py``,
``tests/test_runtime_process.py`` and ``tests/test_runtime_translation.py``).

The model is sliced along the stage partition into a **worker graph**
(:func:`repro.pipeline.stage_compute.build_worker_graph`): each worker owns
one or more segments of the model's stage-program graph, and every dataflow
edge between workers gets its own activation / recompute / gradient
channel.  Purely linear models degenerate to the familiar chain (worker w
talks only to w±1); two-stream models like the Transformer add skip edges —
the target-embedding output jumps from the embedding worker straight to the
cross-attention join, and the encoder output follows — with the same
worker programs, because every edge flows forward through the worker order
(validated at build time), which keeps 1F1B and fill/drain deadlock-free.

Three worker backends share one scheduler loop (:meth:`train_step`) and one
worker loop (:class:`repro.pipeline.worker.Worker` — bootstrap, step wrapper
and serve loop are written once; a backend only chooses the channel set and
where gradients go back):

* :class:`ThreadWorkerPool` (``backend="thread"``, the ``async`` runtime) —
  per-stage worker threads with one in-process queue per graph edge.
  NumPy kernels release the GIL, which is where the wall-clock overlap
  comes from; Python-level glue still serialises on it.
* :class:`ProcessWorkerPool` (``backend="process"``) — per-stage worker
  *processes*, sidestepping the GIL entirely.  Each worker rebuilds its
  slice of the worker graph from a picklable
  :class:`~repro.pipeline.stage_compute.ModelSpec` (nothing live is
  shipped), reads weight versions from a
  :class:`~repro.pipeline.weight_store.SharedWeightMirror` the driver
  republishes after every optimizer step, and exchanges edge payloads with
  its peers over the pickle-free shared-memory ring buffers of
  :mod:`repro.pipeline.transport` (one ring per graph edge per direction;
  multi-part messages carry tuple payloads such as the decoder's
  ``(d, memory, masks…)``).  Accumulated gradients return through a
  :class:`~repro.pipeline.transport.SharedGradMailbox` and the optimizer
  still steps once per minibatch on the driver.
* :class:`~repro.pipeline.net.SocketWorkerPool` (``backend="socket"``) —
  the same worker processes over framed TCP/UDS connections, with a
  pushed :class:`~repro.pipeline.net.RemoteWeightMirror`, gradients riding
  the done reports, a worker registry with heartbeats, and in-place
  replacement of a lost worker (see :mod:`repro.pipeline.net`).

Why equivalence holds despite concurrency:

* every weight version a minibatch reads already exists at the minibatch
  boundary (the newest version any slot resolves to is the current one), so
  no read races an optimizer step;
* each parameter belongs to exactly one worker, which processes backwards
  in microbatch order — gradient accumulation order per parameter matches
  the simulator exactly.  Weight-tied modules either share the owner's
  worker (tied embeddings) or accumulate into a module-local deferred
  buffer folded at the minibatch boundary (tied output projections), in
  the same order on every backend;
* stochastic forwards use counter-based dropout
  (:mod:`repro.nn.dropout`): masks are pure functions of
  (seed, layer, step, microbatch), so draw order cannot depend on worker
  scheduling.  Stream-mode training dropout is rejected at construction;
* per-microbatch forward caches are snapshotted/restored around the many
  in-flight microbatches a worker interleaves;
* NumPy kernels are deterministic, and shared-memory copies are bit-exact,
  so where a value is computed (thread, process) never changes what is
  computed.

The optimizer steps once per minibatch on the driver (the paper's
semantics — updates land at minibatch boundaries), but with the
**overlapped optimizer boundary** (``overlap_boundary=True``, the default)
the boundary no longer drains the pipe: minibatch t+1 is issued to the
workers *first*, and the driver folds gradients, steps the optimizer and
publishes version t+1 while t+1's fill waves are already running.
Bit-for-bit equivalence is preserved by **version-gated weight reads**
(:meth:`~repro.pipeline.plan.WeightResolver.required_version`): every
wave waits until the newest weight version it resolves is published —
early forward waves read old versions and start immediately; backward
waves (and T2 recompute waves) gate on version t+1, whose publication is
the boundary's release operation (after gradients are re-zeroed and T2
velocities advanced).  The boundary itself runs *detached* from the live
parameters (:meth:`~repro.pipeline.plan.StepPlan.finish_step_detached`):
it reads version t from the store, writes version t+1 into fresh arrays,
and never touches ``Parameter.data`` — which thread workers of the next
step are concurrently re-pointing.  Between ``train_step`` calls the live
model consequently lags one optimizer step; :meth:`AsyncPipelineRuntime.sync`
(called automatically by ``state_dict`` / ``load_state_dict`` / ``close``
and by the trainer before evaluation) completes the pending boundary and
restores the latest weights.  With ``overlap_boundary=False`` every step
barriers at the boundary exactly as before.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core import PipeMareConfig
from repro.nn.dropout import Dropout
from repro.nn.module import Module
from repro.optim import Optimizer
from repro.optim.schedulers import LRSchedule
from repro.pipeline.delays import Method
from repro.pipeline.net import SocketWorkerPool
from repro.pipeline.partition import Stage, check_replica_count
from repro.pipeline.plan import PipelineBackend, ReplicaPlan, StepPlan
from repro.pipeline.stage_compute import (
    ModelSpec,
    WorkerCompute,
    WorkerGraph,
    build_worker_graph,
)
from repro.pipeline.transport import (
    QueueChannels,
    RingChannels,
    SharedGradMailbox,
    ShmRing,
    worker_rings,
)
from repro.pipeline.weight_store import SharedWeightMirror
from repro.pipeline.worker import (
    PipelineDeadlockError,
    Worker,
    _build_wave_programs,
    _default_start_method,
    _StepResult,
    _WorkerPoolBase,
    reap,
    run_worker,
)


class RuntimeWedgedError(RuntimeError):
    """The runtime is wedged: a previous step left a worker that will never
    report back (deadlock, silent death, or an unrecoverable worker loss),
    so no further steps can run — build a fresh runtime.  Raised by
    :meth:`AsyncPipelineRuntime.train_step` on entry, distinct from the
    error that wedged the pool in the first place."""


@dataclass
class RuntimeStats:
    """Wall-clock accounting for the last :meth:`train_step` (and running
    totals) — the raw material for measured bubble fractions.

    Stats are committed **atomically and only for completed steps**: an
    aborted step (worker exception, deadlock) contributes nothing, so busy
    time from a partial step can never be mixed with wall time that
    excludes it.

    ``busy`` is compute time (channel waits and payload copies excluded);
    ``transport`` is the time spent moving payload bytes — shared-memory
    copies on the process backend, frame encode/send and receive/decode on
    the socket backend (clocked from a frame's arrival, so waiting for a
    quiet producer is bubble, not transport), zero for threads.  The two are disjoint, so a
    worker's *active* time is their sum — that is the quantity
    :meth:`bubble_fraction` treats as non-idle and
    :meth:`transport_fraction` takes its share of.

    Two boundary-stall measurements were added with the overlapped
    optimizer boundary:

    * ``stall`` — per-worker seconds spent blocked on a version gate
      (waiting for the driver to publish a weight version the wave
      resolves).  Zero in barrier mode, where every version a step reads
      exists before the step is issued.
    * ``boundary`` — driver seconds spent at the optimizer boundary while
      *no* worker compute was in flight (every worker idles for its
      duration).  The barrier-mode cost the overlap erases; an overlapped
      boundary runs inside the next step's wall window and contributes 0
      here.

    ``degradations`` records elastic replica-group events — one dict per
    drop (``kind="degrade"``) or rejoin (``kind="rejoin"``) with the
    minibatch index, the replica involved, and the active count after the
    event — so a run's loss curve can be aligned with the moments its
    effective data parallelism changed.

    With fused wave programs the scheduler hand-off is counted too:
    ``commands``/``reports`` tally the per-step command blocks issued and
    done reports collected (equal in steady state — one report per block),
    and ``last_lanes[w]`` keeps worker ``w``'s per-block
    ``(num_waves, busy, stall, xfer)`` breakdown from the last step.  The
    per-worker busy/stall scalars are the lane *sums*, so coarsened reports
    feed the three fraction methods without double-counting a block's stall
    across its member waves.  :meth:`commands_per_step` is the observable
    the fusion optimisation moves: one command per wave unfused, one per
    fused block otherwise.
    """

    steps: int = 0
    last_wall: float = 0.0
    total_wall: float = 0.0
    last_busy: list[float] = field(default_factory=list)
    total_busy: list[float] = field(default_factory=list)
    last_transport: list[float] = field(default_factory=list)
    total_transport: list[float] = field(default_factory=list)
    last_stall: list[float] = field(default_factory=list)
    total_stall: list[float] = field(default_factory=list)
    last_boundary: float = 0.0
    total_boundary: float = 0.0
    last_commands: int = 0
    total_commands: int = 0
    last_reports: int = 0
    total_reports: int = 0
    last_lanes: list = field(default_factory=list)
    degradations: list = field(default_factory=list)

    def commit(
        self,
        wall: float,
        busy: list[float],
        transport: list[float],
        stall: list[float] | None = None,
        boundary: float = 0.0,
        commands: int = 0,
        reports: int = 0,
        lanes: list | None = None,
    ) -> None:
        """Fold one *completed* step into the running totals."""
        self.steps += 1
        self.last_wall = wall
        self.total_wall += wall
        self.last_busy = list(busy)
        self.last_transport = list(transport)
        stall = [0.0] * len(busy) if stall is None else list(stall)
        self.last_stall = stall
        if not self.total_stall:
            self.total_stall = [0.0] * len(busy)
        self.last_boundary = boundary
        self.total_boundary += boundary
        self.last_commands = commands
        self.total_commands += commands
        self.last_reports = reports
        self.total_reports += reports
        self.last_lanes = list(lanes) if lanes is not None else []
        for w, b in enumerate(busy):
            self.total_busy[w] += b
        for w, x in enumerate(transport):
            self.total_transport[w] += x
        for w, s in enumerate(stall):
            self.total_stall[w] += s

    def commands_per_step(self) -> float:
        """Scheduler→worker command blocks issued per completed step,
        summed over workers (and active replicas).  Unfused this equals the
        wave count of the step schedule; fusion collapses it to the number
        of fused blocks."""
        return self.total_commands / self.steps if self.steps else 0.0

    def reports_per_step(self) -> float:
        """Worker→driver done reports collected per completed step — one
        per command block, so it mirrors :meth:`commands_per_step`."""
        return self.total_reports / self.steps if self.steps else 0.0

    def bubble_fraction(self) -> float:
        """Share of worker-time spent idle for *scheduling* reasons (queue
        waits + fill/drain) over all steps so far.  Active time includes
        transport copies — moving an activation is work, not bubble — and
        the boundary-attributed losses (driver barrier time + version-gate
        stalls) are carved out into :meth:`boundary_stall_fraction`.  All
        three fractions share the steady-state denominator
        ``wall × workers``, so they are disjoint slices of the same pie:
        ``bubble + transport + boundary_stall <= 1`` always (pinned in
        ``tests/test_runtime_errors.py``), with the remainder being the
        workers' compute share."""
        if not self.total_busy or self.total_wall <= 0:
            return 0.0
        k = len(self.total_busy)
        denom = self.total_wall * k
        active = sum(self.total_busy) + sum(self.total_transport)
        lost = self.total_boundary * k + sum(self.total_stall)
        return max(0.0, 1.0 - (active + lost) / denom)

    def transport_fraction(self) -> float:
        """Share of total worker-time (``wall × workers``) spent copying
        payloads through the shared-memory transport.  Historically this
        divided by worker *active* time instead, a different (smaller)
        denominator than the other two fractions used — the shares were
        not comparable and their sum could exceed 1."""
        if not self.total_busy or self.total_wall <= 0:
            return 0.0
        denom = self.total_wall * len(self.total_busy)
        return min(1.0, sum(self.total_transport) / denom)

    def boundary_stall_fraction(self) -> float:
        """Share of total worker-time lost to the minibatch boundary: the
        driver's non-overlapped boundary work (every worker idles for its
        full duration) plus the workers' measured version-gate stalls.
        This is the specific slice of :meth:`bubble_fraction` the
        overlapped boundary attacks — near zero in steady state with
        overlap on."""
        if not self.total_busy or self.total_wall <= 0:
            return 0.0
        k = len(self.total_busy)
        lost = self.total_boundary * k + sum(self.total_stall)
        return max(0.0, min(1.0, lost / (self.total_wall * k)))



# -- worker pools --------------------------------------------------------------


class ThreadWorkerPool(_WorkerPoolBase):
    """Per-stage worker threads with in-process per-edge queues.  The
    workers run over the driver's live model slices and :class:`StepPlan`,
    so gradients accumulate in place and nothing is rebuilt from specs."""

    kind = "thread"

    def __init__(
        self,
        graph: WorkerGraph,
        plan: StepPlan,
        loss_fn,
        deadlock_timeout: float,
        done_grace: float,
        fuse_waves: bool = True,
    ):
        super().__init__(graph, plan, deadlock_timeout, done_grace)
        k = self.num_workers
        programs = _build_wave_programs(
            plan.method, plan, graph, plan.num_microbatches,
            plan.recompute_segment is not None, fuse_waves,
        )
        queues = {
            (kind, e.index): queue.SimpleQueue()
            for e in graph.cross_edges()
            for kind in ("act", "rec", "grad")
        }
        self._workers = [
            Worker(
                w, graph.workers[w], plan, programs,
                loss_fn if w == k - 1 else None,
                QueueChannels(queues, deadlock_timeout),
                plan.num_microbatches, deadlock_timeout,
            )
            for w in range(k)
        ]
        self._cmd = [queue.SimpleQueue() for _ in range(k)]
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=worker.serve, args=(cmd.get, self._done.put),
                name=f"pipe-worker-{worker.w}", daemon=True,
            )
            for worker, cmd in zip(self._workers, self._cmd)
        ]
        for th in self._threads:
            th.start()

    @property
    def _programs(self) -> dict:
        """The compiled wave programs every worker thread reads at its next
        step command (assignable — the starvation tests swap schedules)."""
        return self._workers[0].programs

    @_programs.setter
    def _programs(self, programs: dict) -> None:
        for worker in self._workers:
            worker.programs = programs

    def _get_done(self, timeout: float):
        return self._done.get(timeout=timeout)[1]

    def _send(self, w: int, cmd: tuple) -> None:
        self._cmd[w].put(cmd)

    def close(self) -> None:
        for w in range(self.num_workers):
            self._send(w, ("shutdown",))
        for th in self._threads:
            th.join(timeout=1.0)


def _process_worker_main(w: int, conn, done, init: dict) -> None:
    """Entry point of one spawned shared-memory stage worker: attach the
    weight mirror, the grad mailbox and the ring endpoints named in
    ``init``, then hand over to the shared worker loop."""

    def open_transport(graph, stack):
        shapes, spec = init["stage_shapes"], init["resolver_spec"]
        # Mirror and mailbox are named separately from the ring base: in a
        # ReplicaGroup every replica pool has its own rings but all share
        # replica 0's mirror (one published version window) and mailbox
        # (one segment, one lane per replica).
        mirror = SharedWeightMirror(
            init["wname"], shapes, spec.history, spec.use_t2, readonly=True,
            bell=init["mirror_bell"],
        )
        stack.callback(mirror.close)
        mailbox = SharedGradMailbox(
            init["mbname"], shapes, num_replicas=init["num_replicas"]
        )
        stack.callback(mailbox.close)
        chans = RingChannels(
            worker_rings(graph, w, init["base"], init["slots"], init["ring_bells"]),
            init["deadlock_timeout"],
        )
        stack.callback(chans.close)

        replica = init["replica"]

        def export_grads(compute, seq):
            for b in compute.bindings:
                for pos, p in zip(b.positions, b.params):
                    mailbox.write(b.stage, pos, p.grad, seq, replica)
            for s in {b.stage for b in compute.bindings}:
                # Stamp after the writes: the driver folds this stage block
                # only when the stamp matches the step it collects.
                mailbox.stamp(s, seq, replica)

        return mirror, chans, export_grads

    run_worker(w, init, conn.recv, done.put, open_transport)


class ProcessWorkerPool(_WorkerPoolBase):
    """Per-stage worker processes over the shared-memory transport."""

    kind = "process"

    def __init__(
        self,
        *,
        graph: WorkerGraph,
        plan: StepPlan,
        stages: list[Stage],
        loss_fn,
        model_spec: ModelSpec,
        deadlock_timeout: float,
        done_grace: float,
        start_method: str | None = None,
        granularity: str = "layer",
        max_workers: int | None = None,
        replica: int = 0,
        num_replicas: int = 1,
        shared: tuple | None = None,
        fuse_waves: bool = True,
    ):
        super().__init__(graph, plan, deadlock_timeout, done_grace)
        k = self.num_workers
        self._describe_workers(
            stages, loss_fn, model_spec, granularity, max_workers, fuse_waves
        )
        # Replica pools of a ReplicaGroup share replica 0's weight mirror
        # and grad mailbox (``shared`` = that pool's ``shared_handles``);
        # each still owns its own rings.  ``replica`` selects this pool's
        # mailbox lane.  Defaults are the standalone single-pipeline pool.
        self.replica = replica
        self._owns_shared = shared is None
        # Cleanup state first: close() must be safe however far construction
        # got, so a failure mid-way (e.g. /dev/shm full after the mirror was
        # created) cannot leak segments for the driver's lifetime.
        self.mirror: SharedWeightMirror | None = None
        self.mailbox: SharedGradMailbox | None = None
        self._rings: list[ShmRing] = []
        self._mirror_bells: list = []
        self._conns = []
        base = f"pm{os.getpid():x}{os.urandom(3).hex()}"
        # Doorbell semaphores come from the context that starts the workers
        # and reach them as ``Process`` args (inside ``init``), so fork and
        # spawn both deliver them.
        ctx = multiprocessing.get_context(start_method or _default_start_method())
        try:
            if shared is None:
                self._wname, self._mbname = f"{base}w", f"{base}mb"
                self.mirror = SharedWeightMirror(
                    self._wname, self._stage_shapes, plan.history,
                    plan.corrector is not None, create=True,
                )
                self.mirror.sync_from_store(
                    plan.store, plan.corrector, versions=plan.resolvable_versions()
                )
                self.mailbox = SharedGradMailbox(
                    self._mbname, self._stage_shapes, create=True,
                    num_replicas=num_replicas,
                )
            else:
                self.mirror, self.mailbox, self._wname, self._mbname = shared
            # One aborted step can leave up to N unconsumed messages in a
            # ring; 2N slots let the next step proceed while recv discards
            # the residue.
            slots = max(2 * plan.num_microbatches, 2)
            for e in graph.cross_edges():
                for tag in ("a", "r", "g"):
                    self._rings.append(
                        ShmRing(
                            f"{base}{tag}{e.index}", slots=slots, create=True, ctx=ctx
                        )
                    )
            ring_bells = {ring.name: ring.bells for ring in self._rings}
            self._done = ctx.Queue()
            for w in range(k):
                # Each worker parks on its own bell of the (possibly shared)
                # mirror; the mirror's owner rings them all at every publish.
                self._mirror_bells.append(self.mirror.reader_bell(ctx))
                init = self._worker_init(
                    w, base=base, slots=slots, wname=self._wname,
                    mbname=self._mbname, replica=replica, num_replicas=num_replicas,
                    ring_bells=ring_bells, mirror_bell=self._mirror_bells[-1],
                )
                recv_end, send_end = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_process_worker_main,
                    args=(w, recv_end, self._done, init),
                    name=f"pipe-proc-{w}",
                    daemon=True,
                )
                proc.start()
                recv_end.close()  # worker's end; driver keeps the sender
                self._conns.append(send_end)
                self._procs.append(proc)
            self._await_ready(range(k), max(120.0, done_grace))
        except BaseException:
            self.close()
            raise

    def _get_done(self, timeout: float):
        return self._done.get(timeout=timeout)[1]

    def _send(self, w: int, cmd: tuple) -> None:
        try:
            self._conns[w].send(cmd)
        except OSError as exc:
            # The worker's end of the pipe is gone — it died between steps.
            # Same contract as a mid-step death: wedge the pool.
            self.wedged = True
            raise PipelineDeadlockError(
                f"pipeline worker {w} is gone ({exc}); build a fresh runtime"
            ) from None

    @property
    def shared_handles(self) -> tuple:
        """What a replica pool attaches instead of creating its own:
        ``(mirror, mailbox, mirror_name, mailbox_name)`` — pass as the
        ``shared`` constructor argument (see :class:`ReplicaGroup`).  The
        replica pool's workers get their own doorbells on this mirror."""
        return (self.mirror, self.mailbox, self._wname, self._mbname)

    def collect(self) -> _StepResult:
        seq = self._issued[0]
        result = super().collect()
        # Workers stamped their stage blocks after writing; a mismatch
        # would mean a block was overwritten before this fold read it.
        self.mailbox.check_stamps(seq, self.replica)
        for s, stage in enumerate(self.stages):
            for pos, p in enumerate(stage.params):
                p.grad[...] = self.mailbox.read(s, pos, seq, self.replica)
        return result

    def publish_plan_state(self) -> None:
        # Velocity first: the version-header bump below is the release the
        # workers' version gates observe, and a wave admitted for version v
        # must see the velocities of v's boundary.
        if self.plan.corrector is not None:
            self.mirror.publish_velocity(self.plan.corrector.velocity)
        store = self.plan.store
        v = store.latest_version
        self.mirror.publish_version(
            v, [store.weights(s, v) for s in range(store.num_stages)]
        )

    def full_resync(self) -> None:
        if self._owns_shared:
            # Replica pools share this mirror; its owner resyncs it once.
            self.mirror.sync_from_store(
                self.plan.store,
                self.plan.corrector,
                versions=self.plan.resolvable_versions(),
            )
        for w in range(len(self._conns)):  # none once the workers are stopped
            self._push_pstate(w)

    def stop_workers(self) -> None:
        """Stop the worker processes and close their command pipes,
        leaving every shared-memory segment (rings, mirror, mailbox)
        alive.  This is the degraded-replica teardown: a dropped replica's
        mirror may be the one its surviving siblings still map (replica 0
        owns the group's shared mirror and mailbox), so segment release
        must wait for :meth:`close`.  Idempotent."""
        for conn in self._conns:
            with contextlib.suppress(Exception):
                conn.send(("shutdown",))
        reap(self._procs)
        for conn in self._conns:
            with contextlib.suppress(Exception):
                conn.close()
        self._conns = []
        self._procs = []
        if self.mirror is not None:
            self.mirror.retire_bells(self._mirror_bells)
        self._mirror_bells = []

    def close(self) -> None:
        self.stop_workers()
        for ring in self._rings:
            ring.unlink()
        self._rings = []
        if self._owns_shared:
            if self.mirror is not None:
                self.mirror.unlink()
                self.mirror = None
            if self.mailbox is not None:
                self.mailbox.unlink()
                self.mailbox = None


class ReplicaGroup:
    """R worker pools — one per pipeline replica — behind the single-pool
    issue/collect surface the scheduler loop drives.

    Hybrid data × pipeline parallelism: every replica is a complete
    pipeline (its own worker pool over its own copy of the model), all
    reading weight versions from the *one* shared version clock, so each
    replica sees exactly the staleness the delay profile prescribes.  The
    scheduler never learns R — it issues one *group step* (a list of R
    per-replica ``(ext, ys, scales)`` minibatch shards), collects one
    merged result (losses and per-worker stats concatenated in replica
    order), and runs one optimizer boundary on the folded gradients.

    Pools are issued and collected in lockstep, so their step-sequence
    counters stay equal — the process backend's shared grad mailbox (one
    lane per replica, owned by replica 0's pool) relies on this for its
    per-lane double-buffer parity, and :meth:`issue` fails loudly if the
    invariant ever breaks.  R = 1 wraps the single pool with a thin
    dispatch and no behavioural change.

    **Elastic degradation**: ``active`` is the sorted list of replica
    indices still training.  :meth:`drop_replica` stops a wedged
    replica's workers (keeping shared segments alive — replica 0 owns
    the group's mirror and mailbox) and removes it from ``active``;
    issue/collect then run over the survivors only, whose sequence
    counters remain in lockstep because every past step was issued to
    all of them together.  :meth:`readmit` puts a freshly built pool
    back in at an optimizer boundary (see
    :meth:`AsyncPipelineRuntime.rejoin_replica`).
    """

    def __init__(
        self,
        pools: list[_WorkerPoolBase],
        graphs: list[WorkerGraph],
        replica_plan,
    ):
        self.pools = pools
        self.graphs = graphs
        self.replica_plan = replica_plan
        self.num_replicas = len(pools)
        self.active: list[int] = list(range(len(pools)))
        # Stopped pools replaced by readmit(); they may still own shared
        # segments, so they are released at close() and not before.
        self._retired: list[_WorkerPoolBase] = []

    @property
    def kind(self) -> str:
        return self.pools[0].kind

    @property
    def wedged(self) -> bool:
        return any(self.pools[r].wedged for r in self.active)

    @wedged.setter
    def wedged(self, value: bool) -> None:
        for p in self.pools:
            p.wedged = value

    def issue(self, t, sync, steps, num_microbatches) -> int:
        """Broadcast one group step: ``steps[i]`` is the ``(ext, ys,
        scales)`` shard of the i-th *active* replica (ascending replica
        index).  Returns the common sequence tag.

        The broadcast completes for every pool even when one raises (a
        dead process worker surfaces here as a broken command pipe): a
        pool's sequence counter advances whether or not its send
        succeeded, so stopping mid-broadcast would leave the later pools
        one step behind the earlier ones — and the group permanently out
        of lockstep even after the failed replica is dropped."""
        seqs = []
        first_exc: BaseException | None = None
        for r, (ext, ys, scales) in zip(self.active, steps):
            try:
                seqs.append(
                    self.pools[r].issue(t, sync, ext, ys, scales, num_microbatches)
                )
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
        if any(s != seqs[0] for s in seqs):
            self.wedged = True
            raise RuntimeError(
                f"replica pools fell out of lockstep (step sequences {seqs}); "
                f"the shared-mailbox parity contract is broken"
            )
        return seqs[0]

    def collect(self) -> _StepResult:
        results: list[_StepResult] = []
        first_exc: BaseException | None = None
        for r in self.active:
            try:
                results.append(self.pools[r].collect())
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                # Keep collecting: every pool's issued-step bookkeeping must
                # advance together even when one replica's step failed.
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
        return _StepResult(
            losses=[l for res in results for l in res.losses],
            busy=[b for res in results for b in res.busy],
            transport=[x for res in results for x in res.transport],
            stall=[s for res in results for s in res.stall],
            commands=sum(res.commands for res in results),
            reports=sum(res.reports for res in results),
            lanes=[lane for res in results for lane in res.lanes],
        )

    def await_losses(self, seq: int) -> list | None:
        out: list = []
        for r in self.active:
            losses = self.pools[r].await_losses(seq)
            if losses is None:
                return None
            out.extend(losses)
        return out

    def publish_plan_state(self) -> None:
        # One shared mirror: replica 0's pool owns it and publishes for the
        # whole group (thread pools are a no-op either way).  The publish
        # is a driver-side write into the shared segment, so it keeps
        # working even when replica 0 itself has been dropped — its
        # segments outlive its workers (see drop_replica).
        self.pools[0].publish_plan_state()

    def full_resync(self) -> None:
        primary = self.graphs[0].workers
        for r in self.active:
            if r:
                # A checkpoint restore rewrote the live model; re-seed each
                # copy's persistent state (e.g. BatchNorm running stats)
                # from it before the pool pushes state to its workers.
                for cw, dw in zip(self.graphs[r].workers, primary):
                    if dw.has_persistent_state():
                        cw.load_persistent_state(dw.persistent_state())
            self.pools[r].full_resync()
        if 0 not in self.active:
            # Replica 0 owns the shared mirror; with its workers stopped,
            # its full_resync degenerates to exactly the mirror rewrite
            # the surviving replicas need (there are no pipes to push
            # persistent state down).
            self.pools[0].full_resync()

    def drop_replica(self, r: int) -> None:
        """Degrade the group: stop replica ``r``'s workers and remove it
        from the active set.  Shared segments stay alive (replica 0's
        pool owns the mirror and mailbox every process replica maps), so
        survivors keep reading weight versions and writing their own
        mailbox lanes.  The caller renormalizes the fold (``StepPlan.
        set_num_replicas``) and zeroes the dropped copy's buffers."""
        if r not in self.active:
            raise ValueError(f"replica {r} is not active")
        if len(self.active) == 1:
            raise ValueError("cannot drop the last active replica")
        self.pools[r].stop_workers()
        self.active.remove(r)

    def readmit(self, r: int, pool: _WorkerPoolBase) -> None:
        """Put a freshly built pool back into slot ``r`` (previously
        dropped).  The caller has already aligned the pool's step
        sequence with the survivors' lockstep value."""
        if r in self.active:
            raise ValueError(f"replica {r} is already active")
        old = self.pools[r]
        if old is not pool:
            self._retired.append(old)
        self.pools[r] = pool
        self.active.append(r)
        self.active.sort()

    def close(self) -> None:
        # Non-owner pools release nothing shared; the retired owners (if
        # any) and replica 0's pool unlink the segments last.
        for pool in self.pools:
            pool.close()
        for pool in self._retired:
            pool.close()
        self._retired = []



class AsyncPipelineRuntime(PipelineBackend):
    """Event-driven multi-worker pipeline backend.

    Accepts the same arguments as :class:`~repro.pipeline.PipelineExecutor`
    plus:

    backend:
        ``"thread"`` (default; the CLI's ``async`` runtime),
        ``"process"`` (the CLI's ``process`` runtime — stage workers in
        separate processes over shared-memory transport), or ``"socket"``
        (stage workers over framed TCP/UDS sockets with a worker registry
        and typed failure handling; see :mod:`repro.pipeline.net`).
    net_options:
        Socket-backend tuning forwarded to
        :class:`~repro.pipeline.net.SocketWorkerPool`: ``family``
        ("uds"/"tcp"), ``heartbeat_interval``, ``heartbeat_timeout``,
        ``connect_timeout``, ``handshake_timeout``,
        ``max_worker_restarts`` (per-worker replacement budget: a LOST
        worker is replaced inside the current generation, survivors keep
        their connections), and ``max_restarts`` (whole-generation
        respawn budget, the fallback once per-worker replacement is
        exhausted or fails; both default 0 = wedge with
        :class:`~repro.pipeline.registry.WorkerLostError`).  Timeouts are
        validated at construction; ``heartbeat_timeout`` must exceed
        ``heartbeat_interval``.
    overlap_boundary:
        ``True`` (default): the optimizer boundary of step t is deferred
        and executed while step t+1's fill is already running, with every
        worker wave version-gated for bit-for-bit equivalence (see the
        module docstring).  Between steps the live model then lags one
        optimizer update until :meth:`sync` runs (automatic on
        ``state_dict`` / ``load_state_dict`` / ``close``, and the trainer
        syncs before evaluating).  ``False``: barrier at every minibatch
        boundary (the pre-overlap behaviour; live weights are current
        after every ``train_step``).
    deadlock_timeout:
        Seconds a worker may wait on a channel (or a version gate) before
        the step is aborted with :class:`PipelineDeadlockError` — a wedged
        pipe fails fast instead of hanging.
    model_spec:
        Process and socket backends: picklable
        :class:`~repro.pipeline.stage_compute.ModelSpec` each worker
        rebuilds its slice from.  Defaults to a pickled snapshot of
        ``model`` (``ModelSpec.from_model``) partitioned into
        ``len(stages)`` stages.
    start_method, done_grace:
        Process/socket-backend tuning: multiprocessing start method
        (default fork where available) and the extra driver-side wait
        beyond ``deadlock_timeout`` before a silent worker wedges the
        runtime.
    num_replicas:
        R pipeline replicas for hybrid data × pipeline parallelism — a
        :class:`ReplicaGroup` of R worker pools behind the one scheduler
        loop.  Every replica reads the same delayed weight versions from
        the shared version clock (identical staleness), trains on its own
        contiguous shard of each minibatch with its own counter-based
        dropout stream, and the gradients fold in canonical replica order
        before the single (still overlapped) optimizer boundary.  R = 1 is
        the original single-pipeline runtime, bit for bit.

        Hybrid groups degrade elastically: a failure that wedges some but
        not all replicas drops the wedged ones (recorded in
        ``stats.degradations``), renormalizes the fold to the surviving
        count, and the next ``train_step`` — the caller retries the
        aborted minibatch — runs at R−1.  :meth:`rejoin_replica` readmits
        a dropped replica at a synced optimizer boundary.

    The model must be sliceable into a stage-program graph (see
    :mod:`repro.pipeline.stage_compute`); training-mode Dropout must be
    counter-based (:mod:`repro.nn.dropout`) — stream-mode dropout is
    rejected because its draw order would depend on wall-clock scheduling.

    Use as a context manager, or call :meth:`close`, to shut the workers
    down promptly; thread workers are daemons and process workers are
    daemonic child processes, so leaking one cannot hang interpreter exit.
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
        deadlock_timeout: float = 30.0,
        backend: str = "thread",
        overlap_boundary: bool | None = None,
        fuse_waves: bool | None = None,
        model_spec: ModelSpec | None = None,
        start_method: str | None = None,
        done_grace: float = 10.0,
        granularity: str = "layer",
        max_workers: int | None = None,
        partition_plan=None,
        inflight_steps: int | None = None,
        num_replicas: int = 1,
        net_options: dict | None = None,
    ):
        check_replica_count(num_replicas, model_name=type(model).__name__)
        overlap = True if overlap_boundary is None else bool(overlap_boundary)
        # Two steps in flight is the default with the overlapped boundary:
        # step t+2's fill is admitted before step t+1 is collected, so the
        # pipe never fully drains between minibatches.  The weight-version
        # window is deepened by (depth - 1) so the oldest version an
        # admitted step can resolve still exists.
        depth = (2 if inflight_steps is None else int(inflight_steps)) if overlap else 1
        if depth not in (1, 2):
            raise ValueError(f"inflight_steps must be 1 or 2, got {inflight_steps!r}")
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
                inflight_depth=depth,
                num_replicas=num_replicas,
            ),
        )
        if backend not in ("thread", "process", "socket"):
            raise ValueError(f"unknown worker backend {backend!r}")
        if backend != "socket" and net_options:
            raise ValueError("net_options only applies to the socket backend")
        self.backend = backend
        self.granularity = granularity
        if max_workers is None and partition_plan is not None:
            # The plan can prescribe the worker cap; an explicit kwarg wins.
            max_workers = partition_plan.max_workers
        self.max_workers = max_workers
        self.overlap = overlap
        self.inflight_steps = depth
        # Fused wave programs are the default on every concurrent backend;
        # ``fuse_waves=False`` keeps the one-command-per-wave path alive as
        # the differential reference (trajectories are bit-identical either
        # way — fusion only batches the scheduler hand-off).
        self.fuse_waves = True if fuse_waves is None else bool(fuse_waves)
        # Boundary-overlap bookkeeping (set before pool construction so a
        # failed constructor can still run close()/__del__ safely).
        self._pending_sync: bool | None = None
        self._deferred_on = False
        self._inflight: deque[tuple[int, int, bool]] = deque()
        self._step_mark: float | None = None
        self.deadlock_timeout = deadlock_timeout
        # Kept for elastic rejoin: a dropped replica's pool is rebuilt with
        # the same tuning the original pools were (see rejoin_replica).
        self._done_grace = done_grace
        self._start_method = start_method
        self._net_options = net_options or {}
        self._model_spec0 = model_spec
        self.graph: WorkerGraph = build_worker_graph(
            model, stages, granularity=granularity, max_workers=max_workers
        )
        self.workers: list[WorkerCompute] = self.graph.workers
        for w in self.workers:
            for m in w.all_modules:
                if isinstance(m, Dropout) and m.p > 0 and not m.counter_based:
                    raise ValueError(
                        "AsyncPipelineRuntime does not support stream-mode "
                        "training Dropout: its RNG draw order would depend "
                        "on worker scheduling; switch the model to "
                        "counter-based dropout (Dropout(p, seed=...), see "
                        "repro.nn.dropout) or use the simulator backend"
                    )
        # Hybrid data × pipeline parallelism: replicas 1..R-1 are pickle
        # round-trip copies of (model, loss_fn), each sliced into its own
        # worker graph.  Copy workers only ever run sliced steps, so their
        # tied modules stay in deferred-gradient mode for the copies' whole
        # lifetime (exactly like process workers); the live model's modules
        # remain scoped per step by PipelineBackend.
        self.num_replicas = num_replicas
        self.replica_plan = ReplicaPlan(self.plan, model, loss_fn)
        self.replica_graphs: list[WorkerGraph] = [self.graph]
        for rep in self.replica_plan.replicas:
            g = build_worker_graph(
                rep.model, rep.stages, granularity=granularity,
                max_workers=max_workers,
            )
            for wrk in g.workers:
                wrk.enable_deferred()
                wrk.zero_deferred()
            self.replica_graphs.append(g)
        self._all_graph_workers: list[WorkerCompute] = [
            w for g in self.replica_graphs for w in g.workers
        ]
        k, n = len(self.workers), num_microbatches
        kt = k * num_replicas  # per-worker stats cover every replica's pool
        self.stats = RuntimeStats(
            last_busy=[0.0] * kt,
            total_busy=[0.0] * kt,
            last_transport=[0.0] * kt,
            total_transport=[0.0] * kt,
        )
        self._closed = False
        if backend == "socket" and num_replicas != 1:
            raise ValueError("socket backend does not support num_replicas > 1 yet")
        if backend != "thread" and model_spec is None:
            self._model_spec0 = ModelSpec.from_model(
                model, num_stages=len(stages), plan=partition_plan
            )
        pools: list[_WorkerPoolBase] = []
        try:
            for r in range(num_replicas):
                pools.append(self._build_pool(r, pools[0] if r else None))
        except BaseException:
            for p in pools:
                with contextlib.suppress(Exception):
                    p.close()
            raise
        # The scheduler drives the group; ``pool`` stays the replica-0 pool
        # for introspection (at R = 1 the group is a thin dispatch around
        # it with no behavioural change).
        self.group = ReplicaGroup(pools, self.replica_graphs, self.replica_plan)
        self.pool: _WorkerPoolBase = pools[0]

    # -- introspection ---------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def _build_pool(self, r: int, owner: _WorkerPoolBase | None) -> _WorkerPoolBase:
        """Replica ``r``'s worker pool on this runtime's backend; process
        replica pools attach the shared mirror and mailbox of ``owner``
        (replica 0's pool)."""
        rep = None if r == 0 else self.replica_plan.replicas[r - 1]
        loss_fn = self.loss_fn if rep is None else rep.loss_fn
        if self.backend == "thread":
            return ThreadWorkerPool(
                self.replica_graphs[r], self.plan, loss_fn,
                self.deadlock_timeout, self._done_grace, fuse_waves=self.fuse_waves,
            )
        common = dict(
            graph=self.replica_graphs[r],
            plan=self.plan,
            stages=self.plan.stages if rep is None else rep.stages,
            loss_fn=loss_fn,
            model_spec=self._model_spec0.for_replica(r) if r else self._model_spec0,
            deadlock_timeout=self.deadlock_timeout,
            done_grace=self._done_grace,
            start_method=self._start_method,
            granularity=self.granularity,
            max_workers=self.max_workers,
            fuse_waves=self.fuse_waves,
        )
        if self.backend == "socket":
            return SocketWorkerPool(**common, **self._net_options)
        return ProcessWorkerPool(
            **common, replica=r, num_replicas=self.num_replicas,
            shared=None if owner is None else owner.shared_handles,
        )

    # -- training ---------------------------------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """Run one minibatch through the concurrent pipe; returns the mean
        microbatch training loss (bit-identical to the simulator's)."""
        if self._closed:
            raise RuntimeError("runtime is closed")
        if self.group.wedged:
            raise RuntimeWedgedError(
                "runtime is wedged after a deadlock (a worker never reported "
                "back); build a fresh runtime"
            )
        plan = self.plan
        n = plan.num_microbatches
        # Hybrid sharding: each replica trains on its own contiguous view of
        # the minibatch (replica 0 takes the first shard), with per-replica
        # microbatch splits, loss scales and external-input routing.  R = 1
        # reduces to the original single-pipeline step, bit for bit.
        if plan.num_replicas == 1:
            shards = [(x, y)]
        else:
            shards_x, shards_y = self._shard_minibatch(x, y, plan.num_replicas)
            shards = list(zip(shards_x, shards_y))
        steps = []
        for xr, yr in shards:
            xs, ys = self._split_minibatch(xr, yr, n)
            total = sum(self._num_samples(xj) for xj in xs)
            scales = [plan.grad_scale(self._num_samples(xj), total) for xj in xs]
            # Route each external model input to the graph edges that consume
            # it: multi-input models (the two-stream Transformer) yield tuple
            # microbatches, transposed here into per-input streams.  The
            # microbatches themselves are views of the caller's arrays — no
            # copies on this path (the process backend copies once, into the
            # command pipe).
            if self.graph.num_external == 1:
                ext = [xs]
            else:
                ext = [
                    [xs[j][i] for j in range(n)]
                    for i in range(self.graph.num_external)
                ]
            steps.append((ext, ys, scales))
        # The minibatch index of the step being admitted: ahead of the
        # plan's counter by one per uncollected in-flight step plus one if
        # the previous boundary is still pending.
        t = plan.t + len(self._inflight) + (1 if self._pending_sync is not None else 0)
        sync = plan.is_sync_step_at(t)

        if self._pending_sync is None and not self._inflight:
            # Opening a fresh pipeline epoch (first step, or first after a
            # sync): no boundary will run before this step's backward
            # waves, so the gradient accumulators must be clean *before*
            # any worker starts.
            plan.begin_step()
        if not self._deferred_on:
            self._begin_deferred_grads()
            self._deferred_on = True

        if self.overlap and self.inflight_steps >= 2:
            return self._train_step_pipelined(t, sync, steps, n)

        start = time.perf_counter()
        boundary = 0.0
        try:
            self.group.issue(t, sync, steps, n)
            if self._pending_sync is not None:
                # The overlap: step t's fill is already running on the
                # workers while the driver finishes step t-1 here.  The
                # version push inside is the release that admits step t's
                # gated (backward / T2-recompute) waves.
                b0 = time.perf_counter()
                self._complete_pending_boundary()
                boundary = time.perf_counter() - b0
            result = self.group.collect()
        except BaseException:
            # However the step died, first settle the *previous* step if
            # its boundary is still owed (its gradients are intact — it
            # completed), then leave the model usable monolithically: live
            # parameters back on the latest weight version (thread workers
            # may have re-pointed them at historical arrays mid-step) and
            # tied modules out of deferred mode — evaluation or
            # checkpointing after a caught error must not silently read
            # delayed weights or mis-route gradients.
            if self._pending_sync is not None:
                try:
                    self._complete_pending_boundary()
                except Exception:
                    # The original step error outranks this one; the
                    # half-applied boundary already wedged the pool, so
                    # the failure is not silent — further steps are
                    # rejected explicitly.
                    pass
            self._abort_deferred_grads()
            self._deferred_on = False
            self._zero_replica_grads()
            plan.store.load_latest()
            self._maybe_degrade()
            raise
        finally:
            # Borrowed per-slot version arrays are step-local state; the
            # workers are quiescent once collect returns (or aborted).
            for w in self._all_graph_workers:
                w.unload_borrowed()
        if not self.overlap:
            self._fold_pending_deferred()
            self._fold_replica_grads()
            b0 = time.perf_counter()
            plan.finish_step_detached(sync)
            self.group.publish_plan_state()
            plan.store.load_latest()
            boundary = time.perf_counter() - b0
            self._end_deferred()
        else:
            self._pending_sync = sync
        wall = time.perf_counter() - start
        # Stats commit atomically, and only for completed steps — aborted
        # steps contribute neither busy nor wall time.  ``boundary`` is the
        # non-overlapped boundary cost: the barrier path's full fold +
        # optimizer + publish, zero on the overlapped path (where that work
        # ran concurrently with this step's fill and is inside ``wall``
        # anyway).
        self.stats.commit(
            wall, result.busy, result.transport, result.stall,
            0.0 if self.overlap else boundary,
            commands=result.commands, reports=result.reports, lanes=result.lanes,
        )
        return float(np.mean(result.losses))

    def _train_step_pipelined(self, t, sync, steps, n) -> float:
        """The two-in-flight driver loop: admit step t, settle the oldest
        in-flight step (collect + its optimizer boundary) once the window
        is full, and return as soon as every sink worker has step t's
        losses — t's backward half keeps draining while the caller prepares
        the next minibatch.  Wall time is measured settle-to-settle
        (``_step_mark``), so per-step stats still sum to elapsed time."""
        try:
            seq = self.group.issue(t, sync, steps, n)
            if self._step_mark is None:
                self._step_mark = time.perf_counter()
            self._inflight.append((seq, t, sync))
            if len(self._inflight) >= self.inflight_steps:
                self._settle_oldest()
            losses = self.group.await_losses(seq)
            if losses is None:
                # The step failed or stalled before producing losses; drain
                # the window so the real error surfaces.
                while self._inflight:
                    self._settle_oldest()
                raise PipelineDeadlockError(
                    "pipeline stalled before the sink produced losses"
                )
        except BaseException:
            self._recover_after_failure()
            raise
        return float(np.mean(losses))

    def _settle_oldest(self):
        """Collect the oldest in-flight step and run its (now owed)
        optimizer boundary; commit its stats."""
        seq, t, sync = self._inflight.popleft()
        result = self.group.collect()
        self._pending_sync = sync
        self._complete_pending_boundary()
        now = time.perf_counter()
        wall = now - (self._step_mark if self._step_mark is not None else now)
        self._step_mark = now
        self.stats.commit(
            wall, result.busy, result.transport, result.stall, 0.0,
            commands=result.commands, reports=result.reports, lanes=result.lanes,
        )
        return result

    def _recover_after_failure(self) -> None:
        """Best-effort drain after a pipelined-step failure: settle what
        still can be settled, then leave the model usable monolithically
        (latest weights live, tied modules out of deferred mode) — same
        contract as the barrier path's error handling."""
        failed = False
        while self._inflight:
            if not failed:
                try:
                    self._settle_oldest()
                    continue
                except BaseException:
                    failed = True
                    continue
            # A step already failed: later in-flight steps ran on state the
            # failure may have polluted, so their gradients must not reach
            # the optimizer — collect only to keep the pool's bookkeeping
            # aligned.
            self._inflight.popleft()
            try:
                self.group.collect()
            except BaseException:
                pass
        if self._pending_sync is not None:
            try:
                self._complete_pending_boundary()
            except BaseException:
                pass
        self._step_mark = None
        self._abort_deferred_grads()
        self._deferred_on = False
        self._zero_replica_grads()
        self.plan.store.load_latest()
        for w in self._all_graph_workers:
            w.unload_borrowed()
        self._maybe_degrade()

    def _maybe_degrade(self) -> None:
        """Elastic replica degradation: if a failure wedged *some* of the
        group's active replicas but not all, drop the wedged ones and
        continue at the reduced count — the hybrid group trades data
        parallelism for liveness instead of wedging the whole run.

        Runs at the tail of both failure paths (barrier and pipelined),
        after every in-flight step was drained and the model restored to
        the latest published weights.  The caller's exception still
        propagates: the failed minibatch was aborted, and the *caller*
        retries it — now sharded over the survivors, with the boundary
        renormalized from n·R to n·(R−1) (``StepPlan.set_num_replicas``).
        A from-scratch run at the reduced count with the same shard
        assignment computes the same fold bit-for-bit (see
        :meth:`~repro.pipeline.plan.ReplicaPlan.fold_replica_grads`).

        A half-applied optimizer boundary wedges *all* pools
        (:meth:`_complete_pending_boundary`), so this declines exactly
        the failures that poisoned shared state no survivor can recover
        from — those still wedge the runtime."""
        group = self.group
        changed = False
        while True:
            wedged = [r for r in group.active if group.pools[r].wedged]
            if not wedged or len(wedged) == len(group.active):
                break
            for r in wedged:
                group.drop_replica(r)
                if r > 0:
                    # The dropped copy's buffers must never reach a fold
                    # again.
                    rep = self.replica_plan.replicas[r - 1]
                    for p in rep.params:
                        p.grad.fill(0.0)
                    for m in rep.deferred_modules:
                        for _, buf in m.deferred_grads():
                            buf.fill(0.0)
                self.stats.degradations.append({
                    "kind": "degrade",
                    "minibatch": self.plan.t,
                    "replica": r,
                    "reason": group.pools[r].kind + " worker pool wedged",
                    "active": list(group.active),
                })
            # Drain the survivors' residue.  A group issue that failed
            # mid-broadcast left every healthy pool with an issued step
            # the scheduler will never collect — and its workers are
            # executing that step *right now*, so the caller's retry
            # would race their gradient writes.  Wait for those steps to
            # finish and discard the results.  A survivor that fails
            # here wedges itself and the outer loop drops it too.
            for r in list(group.active):
                pool = group.pools[r]
                while pool._issued:
                    try:
                        pool.collect()
                    except BaseException:  # noqa: BLE001 — best-effort
                        break
            changed = True
        if changed:
            # The drain may have re-polluted gradient buffers and left
            # thread workers' borrowed version arrays loaded; restore the
            # post-abort invariants the failure paths established.
            self._zero_replica_grads()
            for w in self._all_graph_workers:
                w.unload_borrowed()
            self.plan.store.load_latest()
            self.plan.set_num_replicas(len(group.active))

    def rejoin_replica(self, r: int) -> None:
        """Version-fenced rejoin of a previously dropped replica at an
        optimizer boundary.

        :meth:`sync` runs first (every in-flight step settled, the
        store's latest version live), then a fresh worker pool is built
        for slot ``r``, its step-sequence counter aligned to the
        survivors' lockstep value, its gradient buffers zeroed, and the
        boundary renormalization restored to the new active count.
        Process pools attach the group's existing shared mirror and
        mailbox (the replica's lane was never reused), so the rejoined
        workers read the same weight versions the survivors do from
        their first wave — the version fence is the sync itself.

        The rejoined replica resumes its own persistent-state stream
        (e.g. BatchNorm running statistics) from where it froze at the
        drop; per-replica streams are independent, so survivors are
        unaffected."""
        if self._closed:
            raise RuntimeError("runtime is closed")
        group = self.group
        if not 0 <= r < self.num_replicas:
            raise ValueError(f"no such replica {r}")
        if r in group.active:
            raise ValueError(f"replica {r} is already active")
        if group.wedged:
            raise RuntimeWedgedError(
                "cannot rejoin a replica into a wedged group; build a "
                "fresh runtime"
            )
        self.sync()
        pool = self._build_pool(r, group.pools[0])
        rep = None if r == 0 else self.replica_plan.replicas[r - 1]
        # Lockstep: the new pool must tag its first step with the same
        # sequence number the survivors will (the shared-mailbox parity
        # contract keys off this).
        pool._seq = group.pools[group.active[0]]._seq
        if rep is not None:
            for p in rep.params:
                p.grad.fill(0.0)
            for m in rep.deferred_modules:
                for _, buf in m.deferred_grads():
                    buf.fill(0.0)
        group.readmit(r, pool)
        self.plan.set_num_replicas(len(group.active))
        self.stats.degradations.append({
            "kind": "rejoin",
            "minibatch": self.plan.t,
            "replica": r,
            "active": list(group.active),
        })

    def _complete_pending_boundary(self) -> None:
        """Fold the pending step's deferred tied gradients, run its
        detached optimizer boundary, and publish version t+1 — the publish
        being the release the next step's version gates observe.

        A failure here may leave the boundary half-applied (optimizer or
        T2 state advanced with no version published), after which the
        exact trajectory cannot be continued — so it wedges the runtime
        explicitly instead of letting later steps silently diverge from
        the simulator."""
        sync = self._pending_sync
        self._pending_sync = None
        try:
            self._fold_pending_deferred()
            self._fold_replica_grads()
            self.plan.finish_step_detached(sync)
            self.group.publish_plan_state()
        except BaseException:
            self.group.wedged = True
            raise

    def _fold_pending_deferred(self) -> None:
        """Fold deferred tied-gradient buffers into ``Parameter.grad`` and
        re-zero them, staying in deferred mode — the per-boundary fold of
        the overlapped protocol (ordering: strictly before the boundary's
        version push releases the next step's backward waves, which write
        these buffers again)."""
        for m in self._deferred_modules:
            for p, buf in m.deferred_grads():
                p.grad += buf
                buf.fill(0.0)

    def _fold_replica_grads(self) -> None:
        """The replica half of the boundary fold (no-op at R = 1): fold
        each copy replica's deferred tied-gradient buffers into its own
        accumulated gradients, then add every copy's gradients into the
        live parameters in ascending replica index — the canonical fold
        order, independent of which replica's pool finished first (see
        :class:`~repro.pipeline.plan.ReplicaPlan`).  Runs strictly after
        :meth:`_fold_pending_deferred` (replica 0's own deferred fold) and
        strictly before the optimizer consumes ``Parameter.grad``.  A
        degraded group folds its *active* replicas only — a dropped
        replica's buffers are stale and were zeroed at the drop."""
        active = set(self.group.active)
        for rep in self.replica_plan.replicas:
            if rep.index not in active:
                continue
            for m in rep.deferred_modules:
                for p, buf in m.deferred_grads():
                    p.grad += buf
                    buf.fill(0.0)
        self.replica_plan.fold_replica_grads(active=active)

    def _zero_replica_grads(self) -> None:
        """Clear every copy replica's gradient and deferred buffers after
        an aborted step — partial accumulations must not leak into the
        next step's fold (replica 0's buffers are handled by the plan's
        own begin_step / abort paths)."""
        for rep in self.replica_plan.replicas:
            for p in rep.params:
                p.grad.fill(0.0)
            for m in rep.deferred_modules:
                for _, buf in m.deferred_grads():
                    buf.fill(0.0)

    def _end_deferred(self) -> None:
        """Leave deferred tied-gradient mode (buffers already folded)."""
        for m in self._deferred_modules:
            m.disable_deferred_grads()
        self._deferred_on = False

    def sync(self) -> None:
        """Complete any pending (overlapped) optimizer boundary and point
        the live model at the latest weights.  Idempotent and cheap when
        there is nothing pending.  Called automatically by ``state_dict``,
        ``load_state_dict`` and ``close``; :class:`~repro.train.PipelineTrainer`
        calls it before each evaluation.  Direct users of ``train_step``
        who read model weights between steps with overlap on should call
        it first."""
        try:
            while self._inflight:
                self._settle_oldest()
        except BaseException:
            self._recover_after_failure()
            raise
        self._step_mark = None
        if self._pending_sync is not None:
            self._complete_pending_boundary()
        if self._deferred_on:
            self._end_deferred()
        self.plan.store.load_latest()
        # The workers are quiescent now; drop any borrowed per-step version
        # arrays they left loaded.
        for w in self._all_graph_workers:
            w.unload_borrowed()

    # -- accounting --------------------------------------------------------------
    def step_time(self) -> float:
        # The next step to issue is ahead of the plan's counter by the
        # in-flight window plus a pending boundary; the trainer calls this
        # *before* train_step.
        return self.plan.step_time_at(
            self.plan.t
            + len(self._inflight)
            + (1 if self._pending_sync is not None else 0)
        )

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        self.sync()
        return super().state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.sync()
        super().load_state_dict(state)
        self.group.full_resync()

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (idempotent).  Completes any pending overlapped
        boundary first, so the model holds the latest weights afterwards.
        Safe after a deadlock: thread workers consume the shutdown sentinel
        once their own channel timeout returns them to the command loop,
        and process workers are terminated if they do not exit in time."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        pending = (
            getattr(self, "_pending_sync", None) is not None
            or getattr(self, "_deferred_on", False)
            or getattr(self, "_inflight", None)
        )
        wedged = getattr(getattr(self, "group", None), "wedged", False)
        try:
            if pending and not wedged:
                self.sync()
            elif pending:
                # A wedged pipe cannot be drained — syncing would block on
                # done reports that will never arrive.  Abandon the
                # in-flight steps and leave the model monolithically
                # usable (latest published weights, tied modules out of
                # deferred mode), exactly like the failure paths do.
                self._inflight.clear()
                self._pending_sync = None
                self._step_mark = None
                self._abort_deferred_grads()
                self._deferred_on = False
                self._zero_replica_grads()
                self.plan.store.load_latest()
        except Exception:
            pass
        group = getattr(self, "group", None)
        if group is not None:
            group.close()
        # A straggler thread on the deadlock path may have re-loaded a
        # borrowed version array after train_step's own unload; now that
        # every worker has stopped, detach them for good.
        for w in getattr(self, "_all_graph_workers", getattr(self, "workers", [])):
            w.unload_borrowed()

    def __enter__(self) -> "AsyncPipelineRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; workers are daemons regardless
        try:
            self.close()
        except Exception:
            pass
