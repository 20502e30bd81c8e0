"""Channel sets for the worker loop, and the shared-memory transport.

:class:`Channels` is the seam :mod:`repro.pipeline.worker` is parameterised
by — step-tagged ``send``/``recv`` per cross-worker edge and payload kind,
with the stale-tag discard loop written once.  :class:`QueueChannels`
(threads) and :class:`RingChannels` (processes) live here; the socket
sibling is in :mod:`repro.pipeline.net`.  The rest of this module is the
shared-memory machinery under :class:`RingChannels`.

Process workers cannot share ``Parameter`` objects or Python queues the way
the thread backend does, so everything that crosses a process boundary per
microbatch goes through ``multiprocessing.shared_memory`` segments managed
here:

* :class:`ShmRing` — a single-producer single-consumer ring buffer carrying
  one pipeline dataflow edge's payloads (activations, recompute
  activations, or gradients) between two stage workers — for linear models
  that means adjacent workers; for stage-*graph* models (the two-stream
  Transformer) each edge of the worker graph, skip edges included, gets its
  own ring per payload kind.  Slots are handed off seqlock-style through
  per-slot publication (``pub``) and consumption (``ack``) counters living
  in a small control segment, and an endpoint with nothing to do sleeps on
  a doorbell semaphore; payload bytes are copied straight between
  NumPy buffers, so after the capacity of a channel is negotiated (at the
  first send of a step, growing when shapes change) **no pickling happens
  on the microbatch path**.
* :class:`SharedGradMailbox` — one weight-shaped float64 block per stage
  parameter.  Each worker owns a disjoint set of (stage, position) slots and
  writes its accumulated minibatch gradients there once per step; the driver
  copies them into the live ``Parameter.grad`` buffers after all workers
  report done (the done message is the synchronisation point, so the mailbox
  itself needs no flags).  Lifecycle: the driver creates the segment, every
  worker attaches without adopting cleanup ownership (see
  :func:`attach_shm`), and only the driver unlinks — after the workers have
  exited — so a crashing worker can never reap a segment its peers still
  read.  Deferred tied-gradient buffers (weights read on a worker that does
  not own them) do *not* go through the mailbox; they ride the
  persistent-state payload of the done message instead.

Ring protocol (one writer, one reader, ``slots`` slots):

* message ``m`` uses slot ``i = m % slots``; the writer waits until
  ``ack[i] == pub[i]`` (slot free), writes the headers + payload, then
  publishes ``pub[i] = m + 1``; the reader waits for ``pub[i] == m + 1``,
  copies the payload out, then releases ``ack[i] = m + 1``.  This is the
  seqlock slot-handoff invariant: payload bytes are complete before ``pub``
  advances, and fully copied out before ``ack`` does, so neither side ever
  reads (or overwrites) a half-written slot.
* **nobody polls those counters.**  Every ring has two doorbells —
  process-shared counting semaphores.  The writer posts the first one
  *after* the ``pub`` store, once per message, and the reader takes one
  token per message before it looks at the slot, blocking in the kernel
  for what is left of its timeout: the count is exactly "messages
  published and not yet taken by the reader".  The reader posts the second
  one after every ``ack`` store and the writer takes one token per slot it
  reuses (more only while acks arrive out of slot order), so that count
  never exceeds ``slots``.  The counter stores remain the release
  operations; a bell only ends a sleep, and a sleeping endpoint costs no
  CPU — which matters when there are more workers than cores.  The
  semaphores are created with the ring, travel to worker processes as
  ``Process`` arguments (fork or spawn), and an endpoint attached by name
  in the creating process finds them in :data:`local_doorbells`; there is
  no second, polling path for an endpoint that has neither.
* messages are **multi-part**: :meth:`ShmRing.send_msg` accepts a bare
  array or a tuple of arrays/None (a stage-graph edge payload, e.g. the
  Transformer decoder's ``(d, memory, tgt_keep, src_keep)``), packed into
  one slot with one part header per component — still one pub/ack hand-off
  per logical payload.
* every message is tagged with the driver's step sequence number.  After an
  aborted step (worker exception / deadlock) readers may find stale
  messages from the old step in their rings; :meth:`ShmRing.recv_msg`
  returns the tag so callers can discard them (one doorbell token each),
  which self-heals the channel without any cross-process flush
  coordination.
* when a payload outgrows the data segment the writer waits for all
  outstanding messages to be consumed, unlinks the old segment and creates
  generation ``g+1`` with a larger slot capacity; the reader re-attaches
  when it observes the generation counter change.  Data segment names are
  derived from the channel name and generation, so no names travel through
  the ring.

Counter updates are aligned 8-byte stores read/written through NumPy int64
views; slot headers are packed and unpacked as little-endian int64 fields
in one ``struct`` call each.  The seqlock ordering (payload before ``pub``,
copy before ``ack``) relies on the total-store-order guarantee of
x86/x86-64 wherever a counter is read without first taking a doorbell
token (the weight mirror's gate fast path, the grad mailbox stamps).  Pure
Python has no portable memory fence, so on weakly-ordered architectures
(aarch64, ppc64le) such a store could in principle become visible before
the payload bytes; :class:`ShmRing` emits a one-time warning there rather
than failing silently — use the thread backend (or contribute a fenced
transport) on such hosts.
"""

from __future__ import annotations

import multiprocessing
import platform
import queue
import struct
import time
import warnings
from multiprocessing import shared_memory

import numpy as np

_TSO_MACHINES = {"x86_64", "amd64", "i386", "i686", "x86"}
_warned_weak_order = False


def _check_memory_order() -> None:
    global _warned_weak_order
    machine = platform.machine().lower()
    if machine in _TSO_MACHINES or _warned_weak_order:
        return
    _warned_weak_order = True
    warnings.warn(
        f"shared-memory ring transport assumes x86 total store order; on "
        f"{machine!r} the slot handoff is not guaranteed race-free — prefer "
        f"the thread backend on this host",
        RuntimeWarning,
        stacklevel=3,
    )


class TransportError(RuntimeError):
    """Base of the typed transport failures.  Every channel implementation
    behind the ring/socket seam raises subclasses of this, so error paths
    dispatch on type instead of grepping message strings."""


class TransportTimeout(TransportError):
    """A channel operation exceeded its deadline — the pipeline analogue of
    ``queue.Empty``: the schedule's dataflow stalled (peer crashed, wedged,
    or never produced the message)."""


class TransportClosed(TransportError):
    """The peer's end of a channel is gone — connection reset, EOF
    mid-frame, or an operation on an endpoint already shut down.  Unlike a
    :class:`TransportTimeout` (the peer may merely be slow), the channel
    can never deliver again."""


# Names this process created (and therefore legitimately tracks); attaching
# to one of our own segments must not unregister it from the tracker.
_created_here: set[str] = set()


def create_shm(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a segment and remember local ownership for :func:`attach_shm`."""
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    _created_here.add(shm._name)  # noqa: SLF001 — the tracker-registered name
    return shm


def attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup ownership.

    On CPython < 3.13 every ``SharedMemory`` handle registers with the
    process-local ``resource_tracker``, so an attaching worker's exit would
    spuriously unlink segments the driver still owns (and spam "leaked
    shared_memory" warnings).  Only the creating process should track a
    segment; attachers unregister immediately.
    """
    shm = shared_memory.SharedMemory(name=name)
    if shm._name in _created_here:  # noqa: SLF001
        return shm
    try:  # pragma: no cover - depends on interpreter version internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:
        pass
    return shm


def unlink_quietly(shm: shared_memory.SharedMemory | None) -> None:
    """close() + unlink() ignoring races with peers that already unlinked."""
    if shm is None:
        return
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


# Payload dtypes a ring can carry; the code is the index.  float64 covers
# every activation/gradient in this library (nn.module.DTYPE); the integer
# types cover token/index inputs entering stage 0.
_RING_DTYPES: tuple[np.dtype, ...] = tuple(
    np.dtype(d)
    for d in (
        np.float64, np.float32, np.int64, np.int32, np.int16, np.int8,
        np.uint8, np.bool_,
    )
)
_DTYPE_CODE = {d: i for i, d in enumerate(_RING_DTYPES)}

_MAX_DIMS = 8
# Messages are *multi-part*: one payload per graph edge hand-off, holding a
# bare array or a tuple of arrays/None (the stage-graph payloads, e.g. the
# Transformer decoder's ``(d, memory, tgt_keep, src_keep)``).  Per-slot base
# header int64s: [step, kind (0 = bare array, 1 = tuple), nparts, reserved];
# the data region then carries one part header per component —
# [present, dtype_code, ndim, offset, shape*_MAX_DIMS, perm*_MAX_DIMS] —
# followed by the 8-aligned payload blocks.
#
# ``perm`` is the axis order that makes the payload C-contiguous: arrays
# cross the ring in their *own* memory layout, not normalised to C order.
# NumPy kernels downstream are bit-deterministic only for a fixed memory
# layout (BLAS picks different accumulation orders for transposed inputs),
# and the thread backend hands successors the original array object — so
# layout preservation is part of the bit-for-bit equivalence contract.
_BASE_INTS = 4
_BASE_BYTES = 8 * _BASE_INTS
_PART_INTS = 4 + 2 * _MAX_DIMS
_PART_BYTES = 8 * _PART_INTS
# Each header is written and read in one call; little-endian int64 is the
# field layout the slots have always had (native order on every TSO host).
_BASE_HDR = struct.Struct(f"<{_BASE_INTS}q")
_PART_HDR = struct.Struct(f"<{_PART_INTS}q")
_ABSENT_PART = bytes(_PART_BYTES)
_IDENTITY = tuple(tuple(range(n)) for n in range(_MAX_DIMS + 1))
_PAD = tuple((0,) * (_MAX_DIMS - n) for n in range(_MAX_DIMS + 1))


def _align8(n: int) -> int:
    return (int(n) + 7) // 8 * 8

# Control segment int64s before the pub/ack arrays: [generation, slot_bytes].
_CTL_GEN = 0
_CTL_SLOT_BYTES = 1
_CTL_FIXED = 2

# Doorbell owners this process created, by name — a ring's semaphore pair, a
# weight mirror: how an endpoint attached *by name in the creating process*
# (unit tests, a benchmark probe) reaches the semaphores that worker
# processes are handed through their ``Process`` args.  An entry lives until
# the owner's ``unlink()``.
local_doorbells: dict[str, object] = {}


def _round_slot_bytes(nbytes: int) -> int:
    """Slot capacities are multiples of 8 so float64 payload views stay
    aligned, with minimum room for a scalar."""
    return max(64, (int(nbytes) + 7) // 8 * 8)


def _layout_perm(array: np.ndarray) -> tuple[int, ...] | None:
    """Axis order under which ``array`` is C-contiguous, or ``None``.

    Covers every permuted-contiguous layout (C, Fortran, transposed NCHW
    intermediates, …): transposing by the returned permutation yields a
    C-contiguous view, so the payload can cross the ring without changing
    the element order in memory.  Genuinely strided views (slices with
    gaps, broadcasts) return ``None`` and fall back to a C-order copy.

    Axes of size <= 1 carry arbitrary strides (NumPy's relaxed stride
    checking ignores them), so they are pinned ahead of the load-bearing
    axes instead of being ranked by those meaningless strides — a stride
    tie or an oversized dummy stride must never scramble the order of the
    real dimensions.
    """
    if array.flags.c_contiguous:
        return _IDENTITY[array.ndim]
    perm = tuple(sorted(
        range(array.ndim),
        key=lambda i: (array.shape[i] > 1, -array.strides[i], i),
    ))
    if array.transpose(perm).flags.c_contiguous:
        return perm
    return None


def _pack_part(buf, at: int, code: int, off: int, shape, perm) -> None:
    """Write the header of a present part: ``shape`` is the payload's shape
    in memory order (already transposed by ``perm``)."""
    pad = _PAD[len(shape)]
    _PART_HDR.pack_into(buf, at, 1, code, len(shape), off, *shape, *pad, *perm, *pad)


def _unpack_part(buf, at: int):
    """``(dtype, offset, shape, perm)`` of the part header at ``at``, or
    ``None`` for an absent part."""
    fields = _PART_HDR.unpack_from(buf, at)
    if not fields[0]:
        return None
    ndim = fields[2]
    return (
        _RING_DTYPES[fields[1]], fields[3], fields[4:4 + ndim],
        fields[4 + _MAX_DIMS:4 + _MAX_DIMS + ndim],
    )


def _restore_layout(array: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """Undo the send-side transpose: the result has the sender's exact
    shape *and* memory layout (see :func:`_layout_perm`)."""
    if perm == _IDENTITY[len(perm)]:
        return array
    inverse = [0] * len(perm)
    for k, axis in enumerate(perm):
        inverse[axis] = k
    return array.transpose(inverse)


class ShmRing:
    """One directional SPSC array channel (see module docstring).

    Exactly one side constructs with ``create=True`` (the driver, which
    preallocates the control segment, the generation-1 data segment and the
    two doorbells) and each worker endpoint attaches by name with ``role``
    "send" or "recv" and the creator's ``bells``; an endpoint attached in
    the creating process finds them by name.  ``ctx`` is the
    ``multiprocessing`` context whose processes will share the ring (a
    semaphore only travels to children of the context that made it).
    """

    def __init__(
        self,
        name: str,
        *,
        slots: int,
        slot_bytes: int = 1 << 16,
        create: bool = False,
        role: str | None = None,
        bells: tuple | None = None,
        ctx=None,
    ):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        _check_memory_order()
        self.name = name
        self.slots = slots
        self.role = role
        self._msg = 0  # next message number on this endpoint
        self._gen = 1
        self.xfer_seconds = 0.0  # cumulative time spent copying payloads
        # Writer: (slot, view) staked out by reserve(), published by
        # commit_if_reserved(), and the ack tokens taken so far.  Reader:
        # count of views handed out by recv_msg_view() and not yet
        # release()d, plus retired data generations kept mapped while any
        # such view could reference them.
        self._reserved: tuple[int, np.ndarray] | None = None
        self._acks_taken = 0
        self._open_pins = 0
        self._retired: list = []
        ctl_size = 8 * (_CTL_FIXED + 2 * slots)
        if create:
            self._ctl = create_shm(self._ctl_name(), ctl_size)
            self._ctl_ints = np.ndarray(
                (_CTL_FIXED + 2 * slots,), dtype=np.int64, buffer=self._ctl.buf
            )
            self._ctl_ints[:] = 0
            self._ctl_ints[_CTL_GEN] = 1
            self._ctl_ints[_CTL_SLOT_BYTES] = _round_slot_bytes(slot_bytes)
            self._slot_bytes = _round_slot_bytes(slot_bytes)
            self._data = create_shm(
                self._data_name(1), slots * (_BASE_BYTES + self._slot_bytes)
            )
            ctx = ctx or multiprocessing
            bells = local_doorbells[name] = (ctx.Semaphore(0), ctx.Semaphore(0))
        else:
            if bells is None:
                bells = local_doorbells.get(name)
            if bells is None:
                raise TransportError(
                    f"ring {name}: no doorbell for it in this process — attach "
                    f"where the ring was created, or pass the creator's `bells`"
                )
            self._ctl = attach_shm(self._ctl_name())
            self._ctl_ints = np.ndarray(
                (_CTL_FIXED + 2 * slots,), dtype=np.int64, buffer=self._ctl.buf
            )
            self._gen = int(self._ctl_ints[_CTL_GEN])
            self._slot_bytes = int(self._ctl_ints[_CTL_SLOT_BYTES])
            self._data = attach_shm(self._data_name(self._gen))
        # Counting semaphores.  ``_bell`` holds one token per message
        # published and not yet taken by the reader; ``_ack_bell`` one per
        # ack the writer has not consumed yet (never more than ``slots``).
        self.bells = bells
        self._bell, self._ack_bell = bells
        self._pub = self._ctl_ints[_CTL_FIXED:_CTL_FIXED + slots]
        self._ack = self._ctl_ints[_CTL_FIXED + slots:]

    # -- naming ----------------------------------------------------------------
    def _ctl_name(self) -> str:
        return f"{self.name}c"

    def _data_name(self, gen: int) -> str:
        return f"{self.name}d{gen}"

    @property
    def slot_bytes(self) -> int:
        """Capacity of the currently attached data generation.  Cached per
        attach: the live control value may already describe a newer
        generation this endpoint has not switched to yet."""
        return self._slot_bytes

    # -- writer side ----------------------------------------------------------
    def _take_ack(self, deadline: float, what: str) -> None:
        if not self._ack_bell.acquire(True, deadline - time.perf_counter()):
            raise TransportTimeout(what)
        self._acks_taken += 1

    def _await_free(self, m: int, deadline: float) -> int:
        """Park until message ``m``'s slot is free; returns the slot index.

        Reusing a slot takes the reader's ack of message ``m - slots``, so
        by then at least ``m - slots + 1`` acks were posted: the writer
        consumes that many tokens (which keeps the bell's count under
        ``slots``), then — acks may arrive out of slot order — one more
        per wake-up until this slot's counters agree."""
        i = m % self.slots
        due = m - self.slots + 1
        while self._acks_taken < due or self._ack[i] != self._pub[i]:
            self._take_ack(
                deadline, f"ring {self.name}: peer never freed slot {i} (message {m})"
            )
        return i

    def _publish(self, i: int) -> None:
        """Advertise the message in slot ``i``.  The ``pub`` store is the
        release (payload and headers are complete before it); the bell only
        wakes the reader."""
        self._msg += 1
        self._pub[i] = self._msg
        self._bell.release()

    def send_msg(
        self, payload: "np.ndarray | tuple", step: int, timeout: float
    ) -> None:
        """Copy one message — a bare array, or a tuple of arrays/None (a
        stage-graph edge payload) — into the next free slot, tagged with
        ``step``.  The whole message occupies one slot, so the pub/ack
        hand-off stays one-per-payload however many components it has."""
        self._reserved = None  # a stale reservation is superseded by this send
        deadline = time.perf_counter() + timeout
        i = self._await_free(self._msg, deadline)
        kind = 1 if isinstance(payload, tuple) else 0
        parts = payload if kind else (payload,)
        prepared: list[tuple | None] = []  # (array, code, perm) per present part
        need = _PART_BYTES * len(parts)
        for part in parts:
            if part is None:
                prepared.append(None)
                continue
            array = np.asarray(part)
            if array.ndim > _MAX_DIMS:
                raise ValueError(f"array rank {array.ndim} exceeds {_MAX_DIMS}")
            code = _DTYPE_CODE.get(array.dtype)
            if code is None:
                raise TypeError(f"unsupported ring dtype {array.dtype}")
            perm = _layout_perm(array)
            if perm is None:  # strided view with gaps: C-copy is the best we can do
                perm = _IDENTITY[array.ndim]
            prepared.append((array, code, perm))
            need = _align8(need) + array.nbytes
        if need > self.slot_bytes:
            self._grow(need, deadline)
        buf = self._data.buf
        base = i * (_BASE_BYTES + self.slot_bytes)
        _BASE_HDR.pack_into(buf, base, step, kind, len(parts), 0)
        at = base + _BASE_BYTES
        off = _PART_BYTES * len(parts)
        for item in prepared:
            if item is None:
                buf[at:at + _PART_BYTES] = _ABSENT_PART
            else:
                array, code, perm = item
                view = array.transpose(perm)  # C-contiguous in memory order
                off = _align8(off)
                _pack_part(buf, at, code, off, view.shape, perm)
                t0 = time.perf_counter()
                dst = np.ndarray(
                    view.shape, dtype=array.dtype, buffer=buf,
                    offset=base + _BASE_BYTES + off,
                )
                np.copyto(dst, view)
                self.xfer_seconds += time.perf_counter() - t0
                off += array.nbytes
            at += _PART_BYTES
        self._publish(i)

    def send(self, array: np.ndarray, step: int, timeout: float) -> None:
        """Single-array convenience wrapper over :meth:`send_msg`."""
        self.send_msg(np.asarray(array), step, timeout)

    # -- in-ring compute (zero-copy send path) ---------------------------------
    def reserve(
        self, shape, dtype, step: int, timeout: float
    ) -> np.ndarray | None:
        """Stake out the next free slot and return a writable C-order view
        of it, so the producer can compute its payload straight into the
        ring; :meth:`commit_if_reserved` then publishes without any copy.
        Headers (step tag, shape, identity perm) are written here, before
        the payload — publication order is unchanged because ``pub`` only
        advances at commit time.  Returns ``None`` for payloads the
        zero-copy path cannot carry (unsupported dtype, rank > 8); the
        caller falls back to a plain :meth:`send_msg`."""
        self._reserved = None
        dtype = np.dtype(dtype)
        code = _DTYPE_CODE.get(dtype)
        shape = tuple(shape)
        if code is None or len(shape) > _MAX_DIMS:
            return None
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        off = _align8(_PART_BYTES)
        deadline = time.perf_counter() + timeout
        i = self._await_free(self._msg, deadline)
        if off + nbytes > self.slot_bytes:
            self._grow(off + nbytes, deadline)
        buf = self._data.buf
        base = i * (_BASE_BYTES + self.slot_bytes)
        _BASE_HDR.pack_into(buf, base, step, 0, 1, 0)  # one bare array
        _pack_part(buf, base + _BASE_BYTES, code, off, shape, _IDENTITY[len(shape)])
        view = np.ndarray(
            shape, dtype=dtype, buffer=buf, offset=base + _BASE_BYTES + off
        )
        self._reserved = (i, view)
        return view

    def commit_if_reserved(self, payload) -> bool:
        """Publish the reserved slot if ``payload`` *is* its view (identity
        check — the producer computed in-ring); returns False otherwise so
        the caller can fall back to a copying send."""
        if self._reserved is None:
            return False
        i, view = self._reserved
        if payload is not view:
            return False
        self._reserved = None
        self._publish(i)
        return True

    def cancel_reserved(self) -> None:
        """Drop a pending reservation (nothing was published; the slot is
        simply reused by the next send or reserve)."""
        self._reserved = None

    def _grow(self, nbytes: int, deadline: float) -> None:
        """Replace the data segment with a roomier generation.  Waits for the
        reader to drain everything in flight first, so no message ever spans
        two generations."""
        while not (self._ack == self._pub).all():
            self._take_ack(
                deadline,
                f"ring {self.name}: cannot grow while peer holds unread messages",
            )
        new_bytes = _round_slot_bytes(max(2 * nbytes, 2 * self.slot_bytes))
        unlink_quietly(self._data)
        gen = self._gen + 1
        self._data = create_shm(
            self._data_name(gen), self.slots * (_BASE_BYTES + new_bytes)
        )
        # slot_bytes must be visible no later than the generation bump.
        self._ctl_ints[_CTL_SLOT_BYTES] = new_bytes
        self._ctl_ints[_CTL_GEN] = gen
        self._gen = gen
        self._slot_bytes = new_bytes

    # -- reader side ----------------------------------------------------------
    def _await_message(self, timeout: float) -> tuple[int, int, int]:
        """Park on the doorbell for the next message — one token per
        message — and return ``(message, slot, slot byte offset)``."""
        m = self._msg
        if not self._bell.acquire(True, timeout):
            raise TransportTimeout(f"ring {self.name}: message {m} never arrived")
        i = m % self.slots
        if self._pub[i] != m + 1:
            raise TransportError(
                f"ring {self.name}: doorbell rang for message {m} but slot {i} "
                f"advertises {int(self._pub[i]) - 1}"
            )
        if self._ctl_ints[_CTL_GEN] != self._gen:
            self._reattach()
        return m, i, i * (_BASE_BYTES + self.slot_bytes)

    def _ack_slot(self, i: int, m: int) -> None:
        """Hand slot ``i`` back to the writer (message ``m`` is copied out
        or its view released) and wake it if it is parked on the ring."""
        self._ack[i] = m + 1
        self._ack_bell.release()

    def _copy_out(self, m: int, i: int, base: int) -> tuple[int, "np.ndarray | tuple"]:
        buf = self._data.buf
        step, kind, nparts, _ = _BASE_HDR.unpack_from(buf, base)
        parts: list[np.ndarray | None] = []
        for at in range(
            base + _BASE_BYTES, base + _BASE_BYTES + nparts * _PART_BYTES, _PART_BYTES
        ):
            part = _unpack_part(buf, at)
            if part is None:
                parts.append(None)
                continue
            dtype, off, shape, perm = part
            t0 = time.perf_counter()
            out = np.ndarray(
                shape, dtype=dtype, buffer=buf, offset=base + _BASE_BYTES + off
            ).copy()
            self.xfer_seconds += time.perf_counter() - t0
            parts.append(_restore_layout(out, perm))
        self._ack_slot(i, m)  # release after the copies are complete
        self._msg = m + 1
        return step, (tuple(parts) if kind else parts[0])

    def recv_msg(self, timeout: float) -> tuple[int, "np.ndarray | tuple"]:
        """Return ``(step_tag, payload)`` for the next message, copying every
        component out of shared memory.  Callers discard tags from aborted
        steps (see module docstring)."""
        return self._copy_out(*self._await_message(timeout))

    def recv(self, timeout: float) -> tuple[int, np.ndarray]:
        """Single-array convenience wrapper over :meth:`recv_msg`."""
        return self.recv_msg(timeout)  # type: ignore[return-value]

    def recv_msg_view(
        self, timeout: float
    ) -> tuple[int, "np.ndarray | tuple", object]:
        """Like :meth:`recv_msg` but zero-copy where possible: a bare
        single-array message is returned as a **read-only view into the
        ring slot** plus a pin token; the slot stays unacked (the writer
        cannot reuse it) until :meth:`release` is called with the token.
        Multi-part / tuple payloads take the copying path and are acked
        immediately (token ``None``).  Pin discipline is the caller's: the
        pipeline releases a microbatch's pins when its backward wave ends,
        and at most N messages per ring are pinned per step against 2N
        slots, so the writer's slot wait can only ever be on a message the
        reader already finished with."""
        m, i, base = self._await_message(timeout)
        buf = self._data.buf
        step, kind, nparts, _ = _BASE_HDR.unpack_from(buf, base)
        bare = kind == 0 and nparts == 1
        part = _unpack_part(buf, base + _BASE_BYTES) if bare else None
        if part is None:
            # Tuple payloads and absent parts are copied out of the slot
            # already in hand (its doorbell token is taken) and acked.
            return (*self._copy_out(m, i, base), None)
        dtype, off, shape, perm = part
        view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=base + _BASE_BYTES + off)
        view.setflags(write=False)
        self._msg = m + 1
        self._open_pins += 1
        return step, _restore_layout(view, perm), (i, m)

    def release(self, token) -> None:
        """Ack a slot pinned by :meth:`recv_msg_view` — the writer may now
        reuse it.  Out-of-order release across slots is fine (ack counters
        are per-slot)."""
        self._ack_slot(*token)
        self._open_pins -= 1
        if self._open_pins == 0 and self._retired:
            for shm in self._retired:
                try:
                    shm.close()
                except Exception:
                    pass
            self._retired.clear()

    def _reattach(self) -> None:
        # Seqlock read of (gen, slot_bytes): retry if the writer swapped
        # generations between the two loads.
        while True:
            gen = int(self._ctl_ints[_CTL_GEN])
            if gen == self._gen:
                return
            try:
                data = attach_shm(self._data_name(gen))
            except FileNotFoundError:
                continue  # writer is mid-swap; its next store publishes gen
            slot_bytes = int(self._ctl_ints[_CTL_SLOT_BYTES])
            if int(self._ctl_ints[_CTL_GEN]) != gen:
                data.close()
                continue
            if self._open_pins > 0:
                # Defensive: a pinned view still references the old
                # generation's mapping; keep it mapped until the pins
                # drain.  (Unreachable in the pipeline protocol — the
                # writer only grows when everything is acked, and pins
                # block acks — but closing a mapped view would turn a
                # protocol bug into a segfault.)
                self._retired.append(self._data)
            else:
                self._data.close()
            self._data = data
            self._gen = gen
            self._slot_bytes = slot_bytes
            return

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Detach this endpoint (does not unlink)."""
        self._reserved = None
        for shm in (*self._retired, self._data, self._ctl):
            try:
                shm.close()
            except Exception:
                pass
        self._retired.clear()

    def unlink(self) -> None:
        """Remove the segments (driver-side, after workers exited).  The
        current data generation is read from the control header so segments
        grown by a worker are reclaimed too.  The grown segment is attached
        with a *plain* ``SharedMemory`` (not :func:`attach_shm`): attach
        registers it with the resource tracker and ``unlink`` unregisters
        it, which balances; routing through ``attach_shm`` would unregister
        twice and spray KeyError tracebacks at interpreter exit."""
        try:
            gen = int(self._ctl_ints[_CTL_GEN])
        except Exception:
            gen = self._gen
        if gen != self._gen:
            try:
                self._data.close()
                self._data = shared_memory.SharedMemory(name=self._data_name(gen))
            except Exception:
                pass
        unlink_quietly(self._data)
        unlink_quietly(self._ctl)
        local_doorbells.pop(self.name, None)


# -- channel sets ---------------------------------------------------------------


class Channels:
    """One worker's channel set: ``send(kind, edge, payload)`` /
    ``recv(kind, edge)`` of step-tagged payloads, one channel per
    cross-worker edge and payload kind ("act", "rec", "grad") — the seam the
    worker loop (:mod:`repro.pipeline.worker`) is parameterised by.

    Every message carries the driver's step sequence.  A tag other than the
    step being run (``self.step``, set by the worker per step command) is
    residue from an aborted step and is discarded on receive, so channels
    self-heal after an error without any flush handshake.  Subclasses
    implement ``send`` and ``_recv_tagged``; the pin/reserve surface of the
    zero-copy ring transport defaults to no-ops for transports that hand
    payloads off by reference or by copy.
    """

    can_reserve = False

    def __init__(self, timeout: float):
        self._timeout = timeout
        self.step = 0

    def xfer_seconds(self) -> float:
        """Cumulative seconds this worker spent moving payload bytes."""
        return 0.0

    def _recv_tagged(self, kind: str, edge: int, timeout: float):
        """``(tag, payload, pin)`` of the next message on one channel, or
        :class:`TransportTimeout`; ``pin`` is ``None`` unless the payload
        still occupies transport memory (see :meth:`_settle`)."""
        raise NotImplementedError

    def _settle(self, pin, keep: bool) -> None:
        """Dispose of a non-``None`` pin: hold it for the current wave
        (``keep``) or release it now (stale message)."""

    def recv(self, kind: str, edge: int):
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                tag, payload, pin = self._recv_tagged(
                    kind, edge, max(0.0, deadline - time.monotonic())
                )
            except TransportTimeout:
                raise TransportTimeout(
                    f"waited >{self._timeout}s for a {kind} payload on edge "
                    f"{edge} that never arrived"
                ) from None
            if pin is not None:
                self._settle(pin, keep=tag == self.step)
            if tag == self.step:
                return payload
            # stale message from an aborted step — drop and keep looking

    def send(self, kind: str, edge: int, payload) -> None:
        raise NotImplementedError

    def reserve(self, kind: str, edge: int, shape, dtype):
        return None

    def begin_wave(self, j: int) -> None:
        pass

    def release_wave(self, j: int) -> None:
        pass

    def release_all(self) -> None:
        pass

    def close(self) -> None:
        pass


class QueueChannels(Channels):
    """Thread-backend channel set over in-process queues shared by the
    pool's workers, keyed ``(kind, edge)``.  Payloads are handed off by
    reference (arena generation lifetime already covers cross-thread
    hand-offs), so nothing is pinned and nothing counts as transport."""

    def __init__(self, queues: dict, timeout: float):
        super().__init__(timeout)
        self._queues = queues

    def _recv_tagged(self, kind: str, edge: int, timeout: float):
        try:
            tag, payload = self._queues[(kind, edge)].get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeout("queue empty") from None
        return tag, payload, None

    def send(self, kind: str, edge: int, payload) -> None:
        self._queues[(kind, edge)].put((self.step, payload))


class RingChannels(Channels):
    """Process-backend channel set: one shared-memory ring per cross-worker
    edge and payload kind.

    Received single-array payloads are **zero-copy views** into the ring,
    pinned (ack deferred) until the consuming microbatch's backward wave
    finishes: :meth:`recv` files each pin under the wave
    :meth:`begin_wave` opened, :meth:`release_wave` acks a finished
    microbatch's pins, and :meth:`release_all` (worker per-step cleanup)
    drops everything an aborted step left pinned so producers can never
    starve on unacked slots.  :meth:`reserve` is the send-side twin: a
    writable view of the next ring slot that lets the producing segment
    compute straight into the transport (send() publishes it without a
    copy).  Pin budget: a step pins at most N messages per ring while the
    rings hold 2N slots, so a producer's slot-free wait can only be on a
    message the consumer has already released.
    """

    can_reserve = True

    def __init__(self, rings: dict[tuple[str, int], ShmRing], timeout: float):
        super().__init__(timeout)
        self._rings = rings
        self._wave = 0
        self._pins: dict[int, list[tuple[ShmRing, object]]] = {}

    def xfer_seconds(self) -> float:
        return sum(r.xfer_seconds for r in self._rings.values())

    def _recv_tagged(self, kind: str, edge: int, timeout: float):
        ring = self._rings[(kind, edge)]
        tag, payload, token = ring.recv_msg_view(timeout)
        return tag, payload, None if token is None else (ring, token)

    def _settle(self, pin, keep: bool) -> None:
        if keep:
            self._pins.setdefault(self._wave, []).append(pin)
        else:
            pin[0].release(pin[1])

    def send(self, kind: str, edge: int, payload) -> None:
        ring = self._rings[(kind, edge)]
        if ring.commit_if_reserved(payload):
            return
        ring.cancel_reserved()
        ring.send_msg(payload, self.step, self._timeout)

    def reserve(self, kind: str, edge: int, shape, dtype):
        return self._rings[(kind, edge)].reserve(shape, dtype, self.step, self._timeout)

    def begin_wave(self, j: int) -> None:
        self._wave = j

    def release_wave(self, j: int) -> None:
        for ring, token in self._pins.pop(j, []):
            ring.release(token)

    def release_all(self) -> None:
        for pins in self._pins.values():
            for ring, token in pins:
                ring.release(token)
        self._pins.clear()
        for ring in self._rings.values():
            ring.cancel_reserved()

    def close(self) -> None:
        self.release_all()
        for r in self._rings.values():
            r.close()


def worker_rings(
    graph, w: int, base: str, slots: int, bells: dict[str, tuple]
) -> dict[tuple[str, int], ShmRing]:
    """Attach worker ``w``'s ring endpoints: for each cross-worker edge it
    sits on, activations/recomputes flow src→dst and gradients dst→src.
    ``bells`` maps ring names to the creator's doorbells (:attr:`ShmRing.bells`)."""
    rings: dict[tuple[str, int], ShmRing] = {}
    for e in graph.cross_edges():
        if w not in (e.src_worker, e.dst.worker):
            continue
        fwd, bwd = ("recv", "send") if e.dst.worker == w else ("send", "recv")
        for kind, tag, role in (("act", "a", fwd), ("rec", "r", fwd), ("grad", "g", bwd)):
            name = f"{base}{tag}{e.index}"
            rings[(kind, e.index)] = ShmRing(
                name, slots=slots, role=role, bells=bells[name]
            )
    return rings


# -- coarsened done-report lanes ----------------------------------------------
#
# With fused wave programs a worker sends ONE done report per command block
# instead of one per wave; the per-wave cost detail rides along as "lanes":
# one (num_waves, busy_seconds, stall_seconds, xfer_seconds) record per
# executed block.  The per-worker busy/stall scalars the stats consume are
# defined as the lane sums, so coarsening can never double-count a block's
# stall across its member waves (the RuntimeStats fraction invariant).


def pack_lanes(lanes) -> tuple:
    """Normalise a worker's per-block lane list for the done mailbox: a
    tuple of ``(num_waves, busy, stall, xfer)`` tuples — plain ints/floats,
    safe to pickle across the process and socket transports."""
    return tuple(
        (int(n), float(busy), float(stall), float(xfer))
        for n, busy, stall, xfer in lanes
    )


def unpack_lanes(obj) -> list[tuple[int, float, float, float]]:
    """Validate and rebuild a packed lane tuple from a done report.  A
    malformed payload raises :class:`TransportError` (the done path's
    typed-failure convention) instead of corrupting the stats."""
    try:
        lanes = [
            (int(n), float(busy), float(stall), float(xfer))
            for n, busy, stall, xfer in obj
        ]
    except (TypeError, ValueError) as exc:
        raise TransportError(f"malformed done-report lanes: {obj!r}") from exc
    if any(n < 0 or busy < 0 or stall < 0 or xfer < 0 for n, busy, stall, xfer in lanes):
        raise TransportError(f"negative field in done-report lanes: {lanes!r}")
    return lanes


# -- per-stage parameter-shaped blocks ----------------------------------------


def stage_block_layout(
    stage_shapes: list[list[tuple[int, ...]]],
) -> tuple[list[list[int]], int]:
    """Byte offsets of one float64 array per (stage, param), 8-aligned, plus
    the total block size.  The same layout function is used by the gradient
    mailbox and the shared weight mirror so driver and workers always agree.
    """
    offsets: list[list[int]] = []
    cursor = 0
    for shapes in stage_shapes:
        row = []
        for shape in shapes:
            row.append(cursor)
            cursor += int(np.prod(shape, dtype=np.int64)) * 8
        offsets.append(row)
    return offsets, cursor


def block_views(
    buf, stage_shapes: list[list[tuple[int, ...]]], base: int,
    offsets: list[list[int]],
) -> list[list[np.ndarray]]:
    """float64 views over one stage-block at byte ``base`` of ``buf``."""
    views: list[list[np.ndarray]] = []
    for shapes, offs in zip(stage_shapes, offsets):
        views.append([
            np.ndarray(shape, dtype=np.float64, buffer=buf, offset=base + off)
            for shape, off in zip(shapes, offs)
        ])
    return views


class SharedGradMailbox:
    """Per-parameter gradient hand-off from process workers to the driver.

    Workers write their accumulated gradients for the (stage, position)
    slots they own; the driver copies every slot into ``Parameter.grad``
    once all workers reported done.  Ownership is disjoint by construction
    (each parameter belongs to exactly one worker compute), so no locking
    is needed — but with the overlapped optimizer boundary the done queue
    is no longer a per-minibatch barrier, so every stage block carries a
    **step stamp**: the worker stamps its stages with the step sequence
    after the gradient writes, and the driver verifies all stamps match
    the step it is collecting.

    The mailbox is **double-buffered by step parity** (step ``seq`` uses
    block ``seq % 2``): with two steps in flight a worker may legitimately
    finish step t+1 — and write its gradients — before the driver has
    folded step t's, so consecutive steps must not share a block.  Three
    steps can never be outstanding (the driver collects t before issuing
    t+2), so two blocks suffice, and a stamp mismatch still means lost
    gradients and fails loudly instead of folding a stale or torn block.

    With hybrid data × pipeline parallelism the mailbox grows a **replica
    axis**: one independent double-buffered lane per pipeline replica
    (layout ``[replica][parity][stage]``, stamps ``(R, 2, S)``), all in one
    shared-memory block so a single mailbox name serves the whole replica
    group.  Every accessor takes ``replica`` (default 0), and
    ``num_replicas=1`` is the original single-lane mailbox bit for bit.
    """

    def __init__(
        self,
        name: str,
        stage_shapes: list[list[tuple[int, ...]]],
        create: bool = False,
        num_replicas: int = 1,
    ):
        self.name = name
        self.stage_shapes = stage_shapes
        self.num_replicas = num_replicas
        offsets, total = stage_block_layout(stage_shapes)
        stamp_bytes = 8 * 2 * len(stage_shapes) * num_replicas
        if create:
            self._shm = create_shm(
                name, max(stamp_bytes + 2 * total * num_replicas, 8)
            )
        else:
            self._shm = attach_shm(name)
        self._stamps = np.ndarray(
            (num_replicas, 2, len(stage_shapes)), dtype=np.int64,
            buffer=self._shm.buf,
        )
        if create:
            self._stamps[:] = 0
        self._views = [
            [
                block_views(
                    self._shm.buf, stage_shapes,
                    stamp_bytes + (r * 2 + p) * total, offsets,
                )
                for p in range(2)
            ]
            for r in range(num_replicas)
        ]

    def write(
        self, stage: int, pos: int, grad: np.ndarray, seq: int, replica: int = 0
    ) -> None:
        np.copyto(self._views[replica][seq % 2][stage][pos], grad)

    def read(self, stage: int, pos: int, seq: int, replica: int = 0) -> np.ndarray:
        return self._views[replica][seq % 2][stage][pos]

    def stamp(self, stage: int, step: int, replica: int = 0) -> None:
        """Mark ``stage``'s parity block in ``replica``'s lane as holding
        ``step``'s gradients (worker side, after all of its writes for the
        step)."""
        self._stamps[replica][step % 2][stage] = step

    def check_stamps(self, step: int, replica: int = 0) -> None:
        """Driver side: every stage block of ``step``'s parity in
        ``replica``'s lane must carry ``step``'s stamp."""
        stamps = [int(s) for s in self._stamps[replica][step % 2]]
        if any(s != step for s in stamps):
            raise RuntimeError(
                f"gradient mailbox stamps {stamps} (replica {replica}) do "
                f"not all match step {step}; a worker's gradients were lost "
                "or overwritten"
            )

    def close(self) -> None:
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        unlink_quietly(self._shm)
