"""Per-stage weight version queues — the paper's simulator state
("We maintain a queue of weights for each individual pipeline stage",
Appendix C.4).

Stored versions are *references* to the arrays the parameters pointed at
when the version was pushed.  This is safe because optimizers in this
library always rebind ``Parameter.data`` to a fresh array rather than
updating in place; the invariant is asserted at push time in debug mode.

:class:`SharedWeightMirror` is the multi-process projection of the same
state: a ``multiprocessing.shared_memory`` image of the version window (and
the T2 velocity buffers) that the driver republishes after every optimizer
step, so process workers resolve the exact ``StepPlan`` delay slots through
zero-copy views instead of deserializing arrays per microbatch.

The **version-window publish invariant** that makes both stores safe with
no per-read locking, stated for the barrier-free (overlapped-boundary)
protocol — the old done-queue-barrier argument is a degenerate case of it:

* version ``v`` lives in slot ``v % history``; the driver copies the full
  payload in first and advertises ``v`` *last* (``latest_version`` header
  bump / condition notify).  That publication is the release operation the
  per-wave version gates observe (``wait_version`` +
  ``StepPlan.required_version``): a wave of minibatch t runs only once
  every version it resolves is published.
* slot ``v % history`` is next rewritten when version ``v + history`` is
  pushed.  Version ``v + history`` is pushed at boundary
  ``v + history − 1``, while at most minibatch ``v + history`` is in
  flight — whose deepest delay slot resolves no older than
  ``(v + history) − (history − 2) = v + 2``.  The single writer and the
  many readers therefore never overlap on a slot even with a step's fill
  already running during the push; no reader refcount is needed because
  the window arithmetic (``DelayProfile.history_needed`` = deepest lag
  + 2) leaves the reused slot strictly outside every live step's reach.
* publication order within one boundary: T2 velocity buffers are written
  *before* the version that advertises them
  (:meth:`~repro.pipeline.runtime.ProcessWorkerPool.publish_plan_state`),
  so a wave gated on version t+1 always sees the boundary-t velocities.

Worker endpoints attach read-only: their views have the writeable flag
cleared, so a stray in-place update fails loudly instead of corrupting
every other worker's weights.  The same guarantee covers *readers of
stages they do not own* (e.g. a tied output projection borrowing the
embedding stage's weights on the last worker).

On checkpoint restore the resident window is republished oldest version
first (:meth:`SharedWeightMirror.sync_from_store`), so the header lands on
the true latest and delayed reads resume exactly; versions too old for any
future wave to resolve (``StepPlan.resolvable_versions``) are skipped.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np

from repro.pipeline.partition import Stage
from repro.pipeline.transport import (
    TransportTimeout,
    attach_shm,
    block_views,
    create_shm,
    local_doorbells,
    stage_block_layout,
    unlink_quietly,
)
from repro.utils.ring_buffer import RingBuffer


def check_version_resident(
    version: int, latest: int, history: int, where: str = "mirror"
) -> None:
    """Shared window check of the version-gated weight protocol: every
    worker-side mirror (shared-memory or socket) keeps exactly the last
    ``history`` versions and rejects reads outside ``(latest - history,
    latest]`` with the same error text, so a gating bug looks identical
    whichever transport exposed it."""
    if version < 0 or version <= latest - history or version > latest:
        raise KeyError(
            f"version {version} not resident in {where} "
            f"(have ({latest - history}, {latest}])"
        )


class WeightVersionStore:
    """Holds the last ``history`` versions of every stage's weights.

    Version 0 is pushed at construction (the initial weights); version t+1
    must be pushed right after the t-th optimizer step.

    Publication is a release operation: thread workers of an overlapped
    step block in :meth:`wait_version` until the version their wave
    resolves exists, and both push paths notify them under one condition
    variable.  Pushes happen on the driver only; reads may come from any
    worker thread (safe: a push never rewrites a slot a live wave can
    still resolve — see the module docstring's window invariant).
    """

    def __init__(self, stages: list[Stage], history: int):
        if not stages:
            raise ValueError("need at least one stage")
        self.stages = stages
        self._buffers = [RingBuffer(history) for _ in stages]
        self._published = threading.Condition()
        for stage, buf in zip(stages, self._buffers):
            buf.append(stage.current())
        # Advertised version, bumped only after *every* stage buffer holds
        # the payload — the release store lockless gate fast-paths read.
        # Deriving it from a buffer would advertise mid-push.
        self._latest = self._buffers[0].latest_version

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def latest_version(self) -> int:
        return self._latest

    def push_current(self) -> int:
        """Record the stages' current weights as the next version."""
        return self.push_arrays([stage.current() for stage in self.stages])

    def push_arrays(self, arrays_per_stage: list[list[np.ndarray]]) -> int:
        """Record explicit per-stage arrays as the next version — the
        overlapped boundary pushes the detached optimizer result without
        routing it through live ``Parameter.data``.  All stage payloads
        land first, then ``latest_version`` advertises them and every
        :meth:`wait_version` waiter is notified (payload before publish,
        the same release order the shared-memory mirror uses)."""
        version = -1
        with self._published:
            for arrays, buf in zip(arrays_per_stage, self._buffers):
                version = buf.append(list(arrays))
            self._latest = version  # advertise last
            self._published.notify_all()
        return version

    def wait_version(self, version: int, timeout: float) -> None:
        """Block until ``version`` is published (immediately true for
        resident or evicted versions)."""
        if self.latest_version >= version:
            return
        deadline = time.perf_counter() + timeout
        with self._published:
            while self.latest_version < version:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise TransportTimeout(
                        f"weight version {version} was never published "
                        f"(latest is {self.latest_version} after {timeout:g}s)"
                    )
                self._published.wait(remaining)

    def weights(self, stage: int, version: int) -> list[np.ndarray]:
        return self._buffers[stage][version]

    def load(self, stage: int, version: int) -> None:
        """Point stage parameters at the stored version."""
        self.stages[stage].load(self._buffers[stage][version])

    def load_latest(self, stage: int | None = None) -> None:
        if stage is None:
            for s in range(self.num_stages):
                self.load(s, self._buffers[s].latest_version)
        else:
            self.load(stage, self._buffers[stage].latest_version)

    def resident_versions(self, stage: int) -> list[int]:
        return list(self._buffers[stage].versions())

    def state_dict(self) -> dict:
        """Copies of every resident version of every stage, plus the version
        window — everything needed to resume delayed reads exactly."""
        return {
            "oldest_version": self._buffers[0].oldest_version,
            "payloads": [
                [
                    [w.copy() for w in buf[v]]
                    for v in buf.versions()
                ]
                for buf in self._buffers
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the version window and point every stage at its latest
        restored weights."""
        payloads = state["payloads"]
        if len(payloads) != len(self._buffers):
            raise ValueError(
                f"checkpoint has {len(payloads)} stages, store has "
                f"{len(self._buffers)}"
            )
        start = int(state["oldest_version"])
        for buf, versions in zip(self._buffers, payloads):
            vs = [[np.asarray(w) for w in v] for v in versions]
            # A checkpoint may come from a store with a different history
            # depth: trim versions the shallower buffer can't hold, and
            # allow a window narrower than the capacity (the delayed reads
            # those extra slots would serve have already been consumed).
            drop = max(0, len(vs) - buf.capacity)
            buf.seed(start + drop, vs[drop:], allow_gap=True)
        self._latest = self._buffers[0].latest_version
        self.load_latest()


class SharedWeightMirror:
    """Shared-memory image of a :class:`WeightVersionStore` window.

    Layout: an int64 header ``[latest_version, has_velocity]`` followed by
    ``history`` version slots (version ``v`` lives at slot ``v % history``),
    each holding one float64 array per (stage, parameter), and — when the
    plan runs T2 — one extra block mirroring the
    :class:`~repro.core.DiscrepancyCorrector` velocity buffers.

    The driver (``readonly=False``, ``create=True``) copies the new version
    in after every optimizer step, *then* bumps ``latest_version`` — the
    release store worker-side :meth:`wait_version` gates check, which is
    how an overlapped step's waves are admitted exactly when the versions
    they resolve exist — and rings every reader's doorbell.  A reader that
    finds the header behind parks on its own bell (a semaphore minted by
    :meth:`reader_bell`; one per reader, because a post wakes one waiter)
    and re-checks the header at every wake-up: the header is the signal
    and the bell only ends the sleep, so a token left by a publish the
    reader never waited for costs one extra look, nothing else.

    Workers only ever resolve versions
    ``> latest − history``, and the slot of version ``v`` is not rewritten
    until version ``v + history`` is pushed — whose concurrently running
    step can resolve nothing older than ``v + 2`` (module docstring) — so
    readers and the single writer never overlap on a slot even without a
    per-minibatch done-queue barrier.

    Worker endpoints (``readonly=True``) get views with the writeable flag
    cleared; a stray in-place update in a worker fails loudly instead of
    silently corrupting every other worker's weights.
    """

    _HDR_INTS = 2

    def __init__(
        self,
        name: str,
        stage_shapes: list[list[tuple[int, ...]]],
        history: int,
        with_velocity: bool,
        create: bool = False,
        readonly: bool = False,
        bell=None,
    ):
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.name = name
        self.stage_shapes = stage_shapes
        self.history = history
        self.with_velocity = with_velocity
        offsets, block = stage_block_layout(stage_shapes)
        hdr_bytes = 8 * self._HDR_INTS
        total = hdr_bytes + history * block + (block if with_velocity else 0)
        if create:
            self._shm = create_shm(name, max(total, 8))
        else:
            self._shm = attach_shm(name)
        self._hdr = np.ndarray((self._HDR_INTS,), dtype=np.int64, buffer=self._shm.buf)
        # Driver side: one doorbell per reader, rung after every header bump.
        self._reader_bells: list = []
        if create:
            self._hdr[0] = -1  # no version published yet
            self._hdr[1] = int(with_velocity)
            local_doorbells[name] = self
        elif bool(self._hdr[1]) != with_velocity:
            raise ValueError(
                "mirror and worker disagree on T2 velocity (one side has a "
                "corrector, the other does not)"
            )
        elif bell is None and name in local_doorbells:
            # Attached by name in the creating process: the owner is at hand.
            bell = local_doorbells[name].reader_bell(multiprocessing)
        self._bell = bell
        self._slot_views = [
            block_views(self._shm.buf, stage_shapes, hdr_bytes + s * block, offsets)
            for s in range(history)
        ]
        self._vel_views = (
            block_views(self._shm.buf, stage_shapes, hdr_bytes + history * block, offsets)
            if with_velocity
            else None
        )
        if readonly:
            for slot in self._slot_views:
                for stage in slot:
                    for v in stage:
                        v.setflags(write=False)
            if self._vel_views is not None:
                for stage in self._vel_views:
                    for v in stage:
                        v.setflags(write=False)

    # -- driver side ----------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.stage_shapes)

    @property
    def latest_version(self) -> int:
        return int(self._hdr[0])

    def publish_version(self, version: int, arrays_per_stage: list[list[np.ndarray]]) -> None:
        """Copy one full version in, then advertise it as latest."""
        slot = self._slot_views[version % self.history]
        for stage_views, arrays in zip(slot, arrays_per_stage):
            for view, arr in zip(stage_views, arrays):
                np.copyto(view, arr)
        self._hdr[0] = version  # publish last
        for bell in self._reader_bells:
            bell.release()

    def reader_bell(self, ctx):
        """Driver side: mint the doorbell of one more reader, to hand to the
        worker process (``bell=`` of its read-only endpoint) through its
        ``Process`` args.  ``ctx`` is the context that starts the worker."""
        bell = ctx.Semaphore(0)
        self._reader_bells.append(bell)
        return bell

    def retire_bells(self, bells) -> None:
        """Driver side: stop ringing for readers that are gone."""
        for bell in bells:
            self._reader_bells.remove(bell)

    def publish_velocity(self, velocity_per_stage: list[list[np.ndarray]]) -> None:
        for stage_views, arrays in zip(self._vel_views, velocity_per_stage):
            for view, arr in zip(stage_views, arrays):
                np.copyto(view, arr)

    def sync_from_store(
        self, store: WeightVersionStore, corrector=None, versions=None
    ) -> None:
        """Republish resident versions (oldest first, so the header lands on
        the true latest) — the checkpoint-restore path.  ``versions``
        restricts the copy to the slots future waves can still resolve
        (``StepPlan.resolvable_versions``); ``None`` republishes the whole
        window.  Velocity goes first so the header bump releases a
        consistent (weights, velocity) pair."""
        if corrector is not None and self.with_velocity:
            self.publish_velocity(corrector.velocity)
        resident = store.resident_versions(0)
        publish = resident if versions is None else sorted(set(versions) & set(resident))
        for v in publish:
            self.publish_version(
                v, [store.weights(s, v) for s in range(store.num_stages)]
            )

    def wait_version(self, version: int, timeout: float) -> None:
        """Park until ``version`` is advertised by the header (immediately
        true for resident or evicted versions) — the worker side of the
        per-version readiness signal.  Costs no CPU while waiting."""
        if self.latest_version >= version:
            return
        if self._bell is None:
            raise RuntimeError(
                f"mirror {self.name}: this endpoint has no doorbell to wait on "
                f"(pass the `bell` the driver's reader_bell() minted for it)"
            )
        deadline = time.perf_counter() + timeout
        while self.latest_version < version:
            if not self._bell.acquire(True, deadline - time.perf_counter()):
                raise TransportTimeout(
                    f"weight version {version} was never published "
                    f"(mirror header at {self.latest_version} after {timeout:g}s)"
                )

    # -- worker side ----------------------------------------------------------
    def weights(self, stage: int, version: int) -> list[np.ndarray]:
        """Views of ``version``'s arrays for ``stage`` (the worker-side dual
        of :meth:`WeightVersionStore.weights`)."""
        check_version_resident(version, self.latest_version, self.history)
        return self._slot_views[version % self.history][stage]

    def velocity(self, stage: int) -> list[np.ndarray]:
        if self._vel_views is None:
            raise RuntimeError("mirror was built without velocity buffers")
        return self._vel_views[stage]

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        unlink_quietly(self._shm)
        local_doorbells.pop(self.name, None)
