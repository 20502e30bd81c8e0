"""Socket transport behind the ShmRing seam: the pipeline over real links.

The shared-memory runtime (``pipeline/transport.py``) deliberately exposes
two narrow seams:

* **channels** — ``send(kind, edge, payload)`` / ``recv(kind, edge)`` of
  step-tagged multi-part array payloads, one channel per cross-worker edge
  and payload kind;
* the **version-gated weight protocol** — ``weights(stage, version)`` /
  ``latest_version`` / ``wait_version(version, timeout)`` (plus
  ``velocity(stage)`` for T2), with velocity published *before* the
  version that advertises it.

This module fills both seams over TCP or Unix-domain sockets so the exact
:class:`~repro.pipeline.plan.StepPlan` runs with workers that could sit on
other hosts: :class:`Transport` frames the byte stream (length-prefixed,
CRC-checked), the frame codec mirrors :class:`ShmRing`'s layout headers
(dtype code, transposed-view shape, axis permutation — so an F-order array
comes out F-order and BLAS takes bit-identical paths on both ends),
:class:`RemoteWeightMirror` replays the driver's pushed version stream,
and :class:`SocketWorkerPool` drives it all behind the unchanged
issue/collect scheduler surface.

Failure is a first-class state here, not an assertion: the pool keeps a
:class:`~repro.pipeline.registry.WorkerRegistry` (CONNECTING → READY →
RUNNING → LOST) fed by per-connection reader threads and heartbeats.  When
a worker is lost the pool invalidates every step issued before the loss
(``collect``/``await_losses`` fail fast instead of waiting out the
deadlock timeout), and recovers along the cheapest path with budget left:
replace the one lost worker in place (its mesh neighbours re-dial only the
channels they shared with it), respawn the whole worker set, or wedge with
a typed :class:`~repro.pipeline.registry.WorkerLostError`.  Either way the
runtime drains its in-flight window and restores the latest published weights, so
a killed worker costs one minibatch, never a silent divergence.

Addresses are ``"uds:/path/sock"`` or ``"tcp:host:port"`` (``port`` 0
binds an ephemeral port; :class:`Listener` reports the real one).  The
pool defaults to UDS loopback — single host, but every byte crosses a real
socket, which is exactly what the fault-injection suites need.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import pickle
import queue
import random
import select
import shutil
import socket
import struct
import tempfile
import threading
import time
import zlib

import numpy as np

from repro.pipeline.registry import (
    Backoff,
    TaskState,
    WorkerLostError,
    WorkerRegistry,
)
from repro.pipeline.stage_compute import ModelSpec
from repro.pipeline.transport import (
    _DTYPE_CODE,
    _MAX_DIMS,
    _RING_DTYPES,
    Channels,
    TransportClosed,
    TransportError,
    TransportTimeout,
    _align8,
    _layout_perm,
)
from repro.pipeline.weight_store import check_version_resident
from repro.pipeline.worker import _default_start_method, _WorkerPoolBase, reap, run_worker


class FrameError(TransportError):
    """The byte stream is corrupt — bad magic, checksum mismatch, or a
    payload header that cannot describe any array.  Unlike a timeout the
    stream cannot be resynchronised: framing is length-prefixed, so one
    garbled frame poisons everything after it."""


# -- wire framing --------------------------------------------------------------

_MAGIC = 0x504D4652  # "PMFR"
_HDR = struct.Struct("<IIQI")  # magic, frame kind, body length, crc32(body)
_ARR_HDR = struct.Struct("<qqq")  # step tag, payload kind (0 bare / 1 tuple), nparts
_PART_HDR = struct.Struct("<qqqq")  # present, dtype code, ndim, nbytes
_OBJ_HDR = struct.Struct("<qq")  # pickle nbytes, out-of-band buffer count
_MAX_FRAME = 1 << 40
_PAD = bytes(8)
# sendmsg() takes at most IOV_MAX buffers a call (1024 on Linux); a frame
# with more parts simply goes out in several calls.
_IOV_MAX = 512

# Frame kinds.  OBJ carries pickled control messages (step commands, done
# reports, handshake) with their arrays out of band; ARRAYS carries one
# step-tagged edge payload in the ring-compatible layout below;
# WEIGHTS/VELOCITY reuse the ARRAYS body on the weight socket (the step
# field holds the version); RESET clears a remote mirror's window before a
# checkpoint-restore republish.
K_OBJ, K_ARRAYS, K_WEIGHTS, K_VELOCITY, K_RESET = 1, 2, 3, 4, 5

# A frame body is never assembled on the sending side: every builder below
# returns the *chunks* of a body — header bytes followed by the arrays' own
# memory — and :meth:`Transport.send_frame` checksums and ``sendmsg``s them
# in place.  Array memory starts on an 8-byte boundary of the body (zero
# padding after any part whose size is not a multiple of 8, the same rule as
# the ring's slots), so the receiver can hand out aligned *views* of the one
# buffer it read the body into.


def _padded(buffers):
    """Each non-empty buffer followed by the zero bytes that keep the next
    one 8-aligned."""
    for buf in buffers:
        if buf.nbytes:
            yield buf
            if buf.nbytes % 8:
                yield _PAD[: -buf.nbytes % 8]


def _array_chunks(payload, step: int) -> list:
    """One multi-part array payload as the chunks of a frame body: all the
    headers in one ``bytes``, then each part's memory, uncopied.

    Mirrors :meth:`ShmRing.send_msg`'s layout semantics exactly: each part
    records its dtype code, the shape of the C-contiguous *transposed
    view* (``array.transpose(perm)``) and the axis permutation, so the
    receiver reconstructs the sender's shape **and memory layout** —
    required for bit-determinism, since BLAS kernels take different
    floating-point paths for different strides.  ``None`` parts (absent
    optional inputs) are a present=0 header; a bare array is payload kind
    0, a tuple kind 1.  Only a genuinely strided view (gaps, broadcasts)
    is copied, into C order.
    """
    kind = 1 if isinstance(payload, tuple) else 0
    parts = payload if kind else (payload,)
    head = [_ARR_HDR.pack(step, kind, len(parts))]
    blobs = []
    for part in parts:
        if part is None:
            head.append(_PART_HDR.pack(0, 0, 0, 0))
            continue
        array = np.asarray(part)
        code = _DTYPE_CODE.get(array.dtype)
        if code is None:
            raise TypeError(
                f"cannot frame dtype {array.dtype} (supported: "
                f"{', '.join(str(d) for d in _RING_DTYPES)})"
            )
        if array.ndim > _MAX_DIMS:
            raise ValueError(f"cannot frame ndim {array.ndim} > {_MAX_DIMS}")
        perm = _layout_perm(array)
        if perm is None:
            array = np.ascontiguousarray(array)
            perm = tuple(range(array.ndim))
        view = array.transpose(perm)  # C-contiguous: the memory as it lies
        head.append(_PART_HDR.pack(1, code, array.ndim, view.nbytes))
        if array.ndim:
            head.append(struct.pack(f"<{2 * array.ndim}q", *view.shape, *perm))
        blobs.append(memoryview(view.reshape(-1).view(np.uint8)))
    return [b"".join(head), *_padded(blobs)]


def encode_arrays(payload, step: int) -> bytes:
    """The body :func:`_array_chunks` describes, joined into one ``bytes``
    — for callers that want the encoded form itself; the wire path sends
    the chunks without joining them."""
    return b"".join(_array_chunks(payload, step))


def decode_arrays(body) -> tuple[int, object]:
    """Inverse of :func:`_array_chunks`: ``(step, payload)`` with every
    part a *view* of ``body`` in the sender's exact layout (``body`` is a
    bytes-like object or the uint8 array :meth:`Transport.recv_frame`
    returns; the parts keep it alive, and are writable iff it is).  Any
    header that cannot describe a real array — unknown dtype code,
    negative sizes, a perm that is not a permutation, payload bytes that
    do not add up — raises :class:`FrameError` (garbled stream), never
    returns garbage arrays."""
    if not isinstance(body, np.ndarray):
        body = np.frombuffer(body, np.uint8)
    try:
        step, kind, nparts = _ARR_HDR.unpack_from(body, 0)
    except struct.error:
        raise FrameError("array frame shorter than its base header") from None
    if kind not in (0, 1) or nparts < 0 or (kind == 0 and nparts != 1):
        raise FrameError(
            f"garbled array frame header (kind={kind}, nparts={nparts})"
        )
    pos = _ARR_HDR.size
    metas = []
    try:
        for _ in range(nparts):
            present, code, ndim, nbytes = _PART_HDR.unpack_from(body, pos)
            pos += _PART_HDR.size
            if not present:
                metas.append(None)
                continue
            if not (0 <= code < len(_RING_DTYPES)) or not (0 <= ndim <= _MAX_DIMS):
                raise FrameError(
                    f"garbled part header (dtype code {code}, ndim {ndim})"
                )
            dims = struct.unpack_from(f"<{2 * ndim}q", body, pos)
            pos += 16 * ndim
            shape, perm = dims[:ndim], dims[ndim:]
            if any(s < 0 for s in shape) or sorted(perm) != list(range(ndim)):
                raise FrameError(
                    f"garbled part header (shape {shape}, perm {perm})"
                )
            metas.append((code, nbytes, shape, perm))
    except struct.error:
        raise FrameError("array frame truncated inside a part header") from None
    parts: list[np.ndarray | None] = []
    for meta in metas:
        if meta is None:
            parts.append(None)
            continue
        code, nbytes, shape, perm = meta
        dtype = _RING_DTYPES[code]
        if nbytes != math.prod(shape) * dtype.itemsize or pos + nbytes > len(body):
            raise FrameError(
                f"part payload does not match its header "
                f"({nbytes} bytes claimed for shape {shape} {dtype})"
            )
        # The transposed-view shape over the bytes as they arrived; the
        # inverse permutation restores the sender's shape and strides —
        # same recipe as ShmRing.recv_msg, minus its copy.
        out = body[pos:pos + nbytes].view(dtype).reshape(shape)
        if perm != tuple(range(len(perm))):  # identity: the common case
            out = out.transpose(np.argsort(perm))
        parts.append(out)
        pos = _align8(pos + nbytes)
    if pos != len(body):
        raise FrameError(
            f"{len(body) - pos} trailing bytes after array frame"
            if pos < len(body)
            else "array frame truncated inside its padding"
        )
    return step, (tuple(parts) if kind else parts[0])


def _obj_chunks(obj) -> list:
    """A control message as the chunks of an OBJ frame body: the pickle
    (protocol 5) and, out of band, the memory of every contiguous array
    inside ``obj`` — a step command's minibatch and a done report's
    gradients cross the wire without being copied into the pickle."""
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    head = _OBJ_HDR.pack(len(data), len(raws)) + struct.pack(
        f"<{len(raws)}q", *(raw.nbytes for raw in raws)
    )
    return [head, *_padded([memoryview(data), *raws])]


def _decode_obj(body: np.ndarray):
    """Inverse of :func:`_obj_chunks`; arrays that travelled out of band
    come back as views of ``body``."""
    if len(body) < _OBJ_HDR.size:
        raise FrameError("object frame shorter than its base header")
    npickle, nbufs = _OBJ_HDR.unpack_from(body, 0)
    pos = _OBJ_HDR.size + 8 * nbufs
    if nbufs < 0 or pos > len(body):
        raise FrameError(f"garbled object frame header ({nbufs} buffers)")
    sizes = struct.unpack_from(f"<{nbufs}q", body, _OBJ_HDR.size)
    pieces = []
    for size in (npickle, *sizes):
        if size < 0 or pos + size > len(body):
            raise FrameError(
                f"object frame is {len(body)} bytes, its header claims a "
                f"{size}-byte piece at {pos}"
            )
        pieces.append(body[pos:pos + size])
        pos = _align8(pos + size)
    if pos != len(body):
        raise FrameError(
            f"object frame is {len(body)} bytes, its header describes {pos}"
        )
    return pickle.loads(pieces[0], buffers=pieces[1:])


# -- connected endpoints -------------------------------------------------------


def _parse_address(address: str):
    if address.startswith("uds:"):
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - platform
            raise ValueError("uds: addresses need AF_UNIX support")
        return socket.AF_UNIX, address[4:]
    if address.startswith("tcp:"):
        host, sep, port = address[4:].rpartition(":")
        if not sep:
            raise ValueError(f"tcp address must be tcp:host:port, got {address!r}")
        return socket.AF_INET, (host, int(port))
    raise ValueError(f"address must start with uds: or tcp:, got {address!r}")


class Listener:
    """A bound, listening socket handing out :class:`Transport` endpoints.
    ``tcp:host:0`` binds an ephemeral port; :attr:`address` always names
    the real endpoint peers should connect to."""

    def __init__(self, address: str, backlog: int = 16):
        family, addr = _parse_address(address)
        self._family = family
        self._path = addr if family == getattr(socket, "AF_UNIX", None) else None
        self._sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            if family == socket.AF_INET:
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind(addr)
            self._sock.listen(backlog)
        except BaseException:
            self._sock.close()
            raise
        if family == socket.AF_INET:
            host, port = self._sock.getsockname()[:2]
            self.address = f"tcp:{host}:{port}"
        else:
            self.address = address

    def accept(self, timeout: float) -> "Transport":
        self._sock.settimeout(timeout)
        try:
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise TransportTimeout(
                f"no connection on {self.address} within {timeout:g}s"
            ) from None
        except OSError as exc:
            raise TransportClosed(f"listener {self.address} is gone ({exc})") from None
        return Transport(conn)

    def close(self) -> None:
        try:
            self._sock.close()
        finally:
            if self._path is not None:
                try:
                    os.unlink(self._path)
                except OSError:
                    pass


def connect(
    address: str, timeout: float = 10.0, backoff: Backoff | None = None
) -> "Transport":
    """Dial ``address`` with bounded retry + exponential backoff — a worker
    typically races the peer's ``bind``/``listen``, so refusals inside the
    budget are retried; expiry raises :class:`TransportTimeout`."""
    family, addr = _parse_address(address)
    clock = (backoff or Backoff(total=timeout)).start()
    while True:
        sock = socket.socket(family, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(addr)
            return Transport(sock)
        except (ConnectionError, FileNotFoundError, socket.timeout, OSError) as exc:
            sock.close()
            last = exc
        if not clock.sleep():
            raise TransportTimeout(
                f"could not connect to {address} within {timeout:g}s "
                f"after {clock.attempts + 1} attempts ({last})"
            ) from None


class Transport:
    """One connected framed stream endpoint — the network twin of
    :class:`ShmRing`'s send/recv surface.

    Frames are ``(magic, kind, length, crc32)`` headers plus body; a short
    read raises :class:`TransportClosed` (peer gone mid-frame), a bad
    magic or checksum :class:`FrameError` (garbled stream), a deadline
    :class:`TransportTimeout`.  Every byte moves once on each side: a send
    gathers the body's chunks straight from where they live, a receive
    reads the body into one fresh buffer that the decoded arrays view.
    Sends are serialised by a lock so a heartbeat thread can share the
    control socket with the worker's done reports without interleaving
    frames.  :attr:`xfer_seconds` accumulates wall time spent moving
    *array* payloads (``send_msg``/``recv_msg``), matching the ring
    transport's accounting; :attr:`bytes_sent` / :attr:`bytes_received`
    count whole frames, headers included.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Deadlines are per-operation select() waits over a non-blocking
        # socket, never settimeout(): the timeout there is socket-global
        # state, and this endpoint is explicitly shared between a sender
        # and a receiver thread (driver reader vs issue(); worker serve
        # loop vs heartbeat), so one direction's deadline must not leak
        # into the other's blocking call.
        sock.setblocking(False)
        self._send_lock = threading.Lock()
        self._closed = False
        self.xfer_seconds = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._header_at = 0.0  # when the frame being received began arriving

    # -- raw framing -----------------------------------------------------------
    def _wait_io(self, read: bool, deadline: float | None, stalled) -> None:
        """Block until the socket is ready for one recv/send, or the
        operation's own deadline expires (typed timeout) — no shared
        timeout state with the opposite direction."""
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout(stalled())
        try:
            if read:
                ready = select.select([self._sock], [], [], remaining)[0]
            else:
                ready = select.select([], [self._sock], [], remaining)[1]
        except (OSError, ValueError) as exc:
            # close() raced from another thread: the fd is gone (EBADF /
            # fileno -1), which is a peer-side story for this caller.
            raise TransportClosed(f"connection lost mid-wait ({exc})") from None
        if not ready:
            raise TransportTimeout(stalled())

    def _recv_into(self, view: memoryview, deadline: float | None) -> None:
        """Fill ``view`` from the stream."""
        n, got = view.nbytes, 0
        while got < n:
            try:
                k = self._sock.recv_into(view[got:])
            except (BlockingIOError, InterruptedError):
                self._wait_io(
                    True, deadline,
                    lambda: f"frame read stalled ({got}/{n} bytes arrived)",
                )
                continue
            except OSError as exc:
                raise TransportClosed(f"connection lost mid-read ({exc})") from None
            if k == 0:
                raise TransportClosed(
                    "peer closed the connection mid-frame"
                    if got
                    else "peer closed the connection"
                )
            got += k

    def send_frame(self, kind: int, chunks, timeout: float | None = None) -> None:
        """Send one frame whose body is the concatenation of ``chunks``
        (bytes-like objects), checksummed and gathered where they lie."""
        bufs = [m for m in map(memoryview, chunks) if m.nbytes]
        length = crc = 0
        for buf in bufs:
            length += buf.nbytes
            crc = zlib.crc32(buf, crc)
        bufs.insert(0, memoryview(_HDR.pack(_MAGIC, kind, length, crc)))
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._send_lock:
            if self._closed:
                raise TransportClosed("endpoint is closed")
            i = 0
            while i < len(bufs):
                try:
                    sent = self._sock.sendmsg(bufs[i:i + _IOV_MAX])
                except (BlockingIOError, InterruptedError):
                    self._wait_io(
                        False, deadline,
                        lambda: (
                            f"frame send stalled for {timeout:g}s "
                            f"(peer not draining)"
                        ),
                    )
                    continue
                except OSError as exc:
                    raise TransportClosed(
                        f"connection lost mid-send ({exc})"
                    ) from None
                while sent:  # step past what the kernel took
                    if sent >= bufs[i].nbytes:
                        sent -= bufs[i].nbytes
                        i += 1
                    else:
                        bufs[i] = bufs[i][sent:]
                        sent = 0
            self.bytes_sent += _HDR.size + length

    def recv_frame(self, timeout: float | None = None) -> tuple[int, np.ndarray]:
        """One frame as ``(kind, body)``; ``body`` is a fresh uint8 array
        nothing else refers to, so decoders may hand out views of it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._closed:
            raise TransportClosed("endpoint is closed")
        header = bytearray(_HDR.size)
        self._recv_into(memoryview(header), deadline)
        self._header_at = time.perf_counter()
        magic, kind, length, crc = _HDR.unpack(header)
        if magic != _MAGIC:
            raise FrameError(f"bad frame magic 0x{magic:08x} — stream corrupt")
        if length > _MAX_FRAME:
            raise FrameError(f"frame length {length} exceeds the 1 TiB cap")
        try:
            body = np.empty(length, np.uint8)
        except MemoryError:
            raise FrameError(
                f"frame length {length} cannot be buffered — stream corrupt"
            ) from None
        self._recv_into(memoryview(body), deadline)
        if zlib.crc32(body) != crc:
            raise FrameError("frame checksum mismatch — stream corrupt")
        self.bytes_received += _HDR.size + length
        return kind, body

    # -- typed convenience -----------------------------------------------------
    def send_obj(self, obj, timeout: float | None = None) -> None:
        self.send_frame(K_OBJ, _obj_chunks(obj), timeout)

    def recv_obj(self, timeout: float | None = None):
        kind, body = self.recv_frame(timeout)
        if kind != K_OBJ:
            raise FrameError(f"expected an OBJ frame, got kind {kind}")
        return _decode_obj(body)

    def send_arrays(
        self, kind: int, payload, step: int, timeout: float | None = None
    ) -> None:
        self.send_frame(kind, _array_chunks(payload, step), timeout)

    def send_msg(self, payload, step: int, timeout: float | None = None) -> None:
        t0 = time.perf_counter()
        self.send_arrays(K_ARRAYS, payload, step, timeout)
        self.xfer_seconds += time.perf_counter() - t0

    def recv_msg(self, timeout: float | None = None) -> tuple[int, object]:
        kind, body = self.recv_frame(timeout)
        if kind != K_ARRAYS:
            raise FrameError(f"expected an ARRAYS frame, got kind {kind}")
        out = decode_arrays(body)
        # Clocked from the frame header's arrival, not from the call: the
        # wait for a quiet producer is bubble, not transport — the same
        # rule as ShmRing, which starts timing after its slot wait.
        self.xfer_seconds += time.perf_counter() - self._header_at
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# -- the two seams -------------------------------------------------------------


class _SocketChannels(Channels):
    """Socket-backend channel set: one framed connection per cross-worker
    edge and payload kind — the drop-in sibling of ``QueueChannels`` and
    ``RingChannels``.  Streams copy on both ends (no shared slots to pin),
    so the reserve/pin surface keeps the base class's no-ops.

    Connections are opened by :meth:`rewire`, which serves bring-up (every
    channel of a fresh worker, nothing to close) and in-place replacement
    of a mesh neighbour (only the channels shared with it) alike.
    """

    def __init__(
        self, w: int, timeout: float, connect_timeout: float,
        handshake_timeout: float, backoff: Backoff,
    ):
        super().__init__(timeout)
        self._w = w
        self._conns: dict[tuple[str, int], Transport] = {}
        self._connect_timeout = connect_timeout
        self._handshake_timeout = handshake_timeout
        self._backoff = backoff

    def xfer_seconds(self) -> float:
        return sum(c.xfer_seconds for c in self._conns.values())

    def _recv_tagged(self, kind: str, edge: int, timeout: float):
        tag, payload = self._conns[(kind, edge)].recv_msg(timeout)
        return tag, payload, None

    def send(self, kind: str, edge: int, payload) -> None:
        self._conns[(kind, edge)].send_msg(payload, self.step, self._timeout)

    def disconnect(self, kind: str, edge: int) -> None:
        """Sever one channel (fault injection / tests)."""
        self._conns[(kind, edge)].close()

    def rewire(self, spec: dict, recv, send) -> None:
        """(Re)open the channels named in ``spec``: close the ones in
        ``spec["close"]`` (they died with a replaced neighbour — a later
        ``recv`` on one would surface a confusing TransportClosed instead of
        using the re-dialed socket), bind a listener per ``spec["listen"]``
        key (the *receiver* of a channel owns its listener), report the
        bound addresses, wait for the driver's merged address map, then
        dial ``spec["dial"]`` and accept the rest.  Every other connection
        — control, weights, channels to unaffected neighbours — survives
        untouched."""
        listeners: dict[tuple[str, int], Listener] = {}
        try:
            for key in spec["close"]:
                conn = self._conns.pop(key, None)
                if conn is not None:
                    conn.close()
            for key, address in spec["listen"].items():
                listeners[key] = Listener(address, backlog=2)
            send(("bound", self._w, {key: l.address for key, l in listeners.items()}))
            tag, addresses = recv(self._handshake_timeout)
            if tag != "addresses":
                raise FrameError(f"expected addresses, got {tag!r}")
            # Dial first, accept second: every peer listener reported bound
            # before the address broadcast, so dials complete against the
            # backlog without waiting for the peer's accept — no ordering
            # deadlock however the mesh is shaped.
            for key in spec["dial"]:
                self._conns[key] = connect(
                    addresses[key], self._connect_timeout, self._backoff
                )
            for key, listener in listeners.items():
                self._conns[key] = listener.accept(self._handshake_timeout)
        finally:
            for listener in listeners.values():
                listener.close()

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()


class RemoteWeightMirror:
    """Worker-side endpoint of the version-gated weight protocol over a
    socket: the driver *pushes* velocity and version frames after every
    optimizer boundary and this mirror replays them, in arrival order,
    into a resident window of the last ``history`` versions.

    The pipeline is partitioned on the wire too: a frame carries only the
    stages this worker reads (``read_stages`` — its own bindings plus
    borrowed tied coordinates), in ascending stage order, and the window
    holds nothing else.

    The seam is identical to :class:`SharedWeightMirror`'s worker side —
    ``weights``/``latest_version``/``wait_version``/``velocity`` — so
    :class:`~repro.pipeline.plan.WorkerPlanMirror` runs unmodified.
    A dedicated drainer thread folds frames into the window *eagerly*, in
    arrival order — the driver's send must never block on a worker
    that happens not to need a version right now, or a weight window
    larger than the kernel socket buffer deadlocks the publish (the
    worker would only start reading once a step arrives on the control
    channel, which the blocked driver never sends).  In-order delivery
    guarantees that once version v is visible, every older resident
    version and v's boundary velocities (sent first, same as the shared
    mirror's publish order) are too.  The driver's latest can only run
    *ahead* of this view, never behind it, so the ``v > latest_version``
    gate check stays correct; the one non-monotone event — checkpoint
    restore — is fenced by :meth:`await_reset` (a RESET frame plus a
    control-channel marker).
    """

    def __init__(
        self,
        conn: Transport,
        stage_shapes: list[list[tuple[int, ...]]],
        read_stages: list[int],
        history: int,
        with_velocity: bool,
    ):
        self._conn = conn
        self._counts = {s: len(stage_shapes[s]) for s in read_stages}
        self.history = history
        self.with_velocity = with_velocity
        self._window: dict[int, dict[int, list[np.ndarray]]] = {}
        self._velocity: dict[int, list[np.ndarray]] | None = None
        self._latest = -1
        self._cond = threading.Condition()
        self._resets = 0  # RESET frames folded so far
        self._resets_consumed = 0  # acknowledged by await_reset
        self._broken: BaseException | None = None
        self._drainer = threading.Thread(
            target=self._drain_loop, name="weight-drain", daemon=True
        )
        self._drainer.start()

    def _drain_loop(self) -> None:
        while True:
            # Receive and decode with the lock free: weights() takes it on
            # every per-wave load and must not wait out an unrelated frame.
            try:
                kind, body = self._conn.recv_frame(None)
                if kind not in (K_WEIGHTS, K_VELOCITY, K_RESET):
                    raise FrameError(
                        f"unexpected frame kind {kind} on the weight socket"
                    )
                if kind != K_RESET:
                    version, payload = decode_arrays(body)
                    stages = self._regroup(payload)
            except Exception as exc:  # noqa: BLE001 — surfaced by _wait_for
                with self._cond:
                    self._broken = exc
                    self._cond.notify_all()
                return
            with self._cond:
                if kind == K_RESET:
                    self._window.clear()
                    self._latest = -1
                    self._resets += 1
                elif kind == K_VELOCITY:
                    self._velocity = stages
                else:
                    self._window[version] = stages
                    self._latest = max(self._latest, version)
                    for old in [
                        v for v in self._window if v <= self._latest - self.history
                    ]:
                        del self._window[old]
                self._cond.notify_all()

    def _wait_for(self, ready, deadline: float, describe) -> None:
        with self._cond:
            while not ready():
                if self._broken is not None:
                    raise TransportClosed(
                        f"weight channel broke while {describe()} "
                        f"({self._broken})"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout(describe())
                self._cond.wait(remaining)

    @property
    def latest_version(self) -> int:
        return self._latest

    def _regroup(self, flat) -> dict[int, list[np.ndarray]]:
        arrays = list(flat) if isinstance(flat, tuple) else [flat]
        if len(arrays) != sum(self._counts.values()):
            raise FrameError(
                f"weight frame carried {len(arrays)} arrays, expected "
                f"{sum(self._counts.values())} for stages {sorted(self._counts)}"
            )
        stages, pos = {}, 0
        for stage, count in self._counts.items():
            stages[stage] = arrays[pos:pos + count]
            for arr in stages[stage]:
                arr.setflags(write=False)  # workers must never write weights
            pos += count
        return stages

    def _check_read(self, stage: int) -> None:
        if stage not in self._counts:
            raise RuntimeError(
                f"stage {stage} is not mirrored on this worker: the driver "
                f"publishes it only its read set, stages "
                f"{sorted(self._counts)} — a wave that loads stage {stage} "
                f"here is a wave-compiler bug"
            )

    def wait_version(self, version: int, timeout: float) -> None:
        if self._latest >= version:
            return
        self._wait_for(
            lambda: self._latest >= version,
            time.monotonic() + timeout,
            lambda: (
                f"weight version {version} was never published "
                f"(remote mirror at {self._latest} after {timeout:g}s)"
            ),
        )

    def await_reset(self, version: int, timeout: float) -> None:
        """Checkpoint-restore fence: wait until a RESET frame has been
        folded and the republished window's header lands on ``version``.
        The driver sends the weight frames first and then the
        control-channel marker that triggers this call, so the drainer
        may have folded the RESET already — each fence consumes one RESET
        frame, whether it landed before or after this call."""
        self._wait_for(
            lambda: self._resets > self._resets_consumed
            and self._latest == version,
            time.monotonic() + timeout,
            lambda: (
                f"weight window was never republished to version "
                f"{version} after a restore (at {self._latest} after "
                f"{timeout:g}s)"
            ),
        )
        with self._cond:
            self._resets_consumed += 1

    def weights(self, stage: int, version: int) -> list[np.ndarray]:
        self._check_read(stage)
        with self._cond:
            check_version_resident(
                version, self._latest, self.history, "remote mirror"
            )
            return self._window[version][stage]

    def velocity(self, stage: int) -> list[np.ndarray]:
        if not self.with_velocity:
            raise RuntimeError("mirror was built without velocity buffers")
        self._check_read(stage)
        if self._velocity is None:
            raise RuntimeError(
                "no velocity frame received yet (driver must publish velocity "
                "before the version that needs it)"
            )
        return self._velocity[stage]

    def close(self) -> None:
        self._conn.close()


# -- worker process ------------------------------------------------------------


def _channel_keys(edges, w: int):
    """Which (kind, edge) channels worker ``w`` listens on vs dials, from
    the worker graph's picklable edge spec ``(index, src_worker,
    dst_worker)``.  The *receiver* of a channel owns its listener:
    activations/recomputes flow src→dst, gradients dst→src — the socket
    projection of ``worker_rings``'s role assignment."""
    listen, dial = [], []
    for index, src_w, dst_w in edges:
        if dst_w == w:
            listen += [("act", index), ("rec", index)]
            dial += [("grad", index)]
        elif src_w == w:
            dial += [("act", index), ("rec", index)]
            listen += [("grad", index)]
    return listen, dial


def _grads_for_report(compute, seq):
    """Gradients ride the done report (no shared mailbox over a socket):
    per-binding (stage, positions, arrays), disjoint across workers."""
    return [
        (b.stage, list(b.positions), [p.grad for p in b.params])
        for b in compute.bindings
    ]


def _socket_worker_main(w: int, ctl_address: str, opts: dict) -> None:
    """Entry point of one socket stage worker.

    Only the bootstrap address crosses the process boundary; everything
    else — the model spec, resolver spec, channel
    topology, initial persistent state — arrives over the control socket,
    so the same entry point would serve a worker started on another host
    by any launcher.  Dials the driver twice (control + weight
    connections), receives ``init``, and hands over to the shared worker
    loop with the control connection as its command/report endpoint; the
    channel mesh is opened by the same ``rewire`` handshake a replacement
    uses, and heartbeats start once it stands.
    """
    handshake, timeout = opts["handshake_timeout"], opts["deadlock_timeout"]
    # Jitter desynchronizes the retry schedules of workers (re)connecting
    # after the same event — a whole generation dialing the driver, or every
    # mesh neighbor re-dialing one replacement — so attempts don't stampede
    # the listener backlog in lockstep.  Seeded by worker index: each worker
    # draws a distinct but reproducible schedule.
    backoff = Backoff(
        total=opts["connect_timeout"], jitter=0.25, rng=random.Random(w)
    )
    try:
        ctl = connect(ctl_address, opts["connect_timeout"], backoff)
        ctl.send_obj(("hello", w), handshake)
        wconn = connect(ctl_address, opts["connect_timeout"], backoff)
        wconn.send_obj(("weights", w), handshake)
        tag, init = ctl.recv_obj(handshake)
        if tag != "init":
            raise FrameError(f"expected init, got {tag!r}")
    except TransportError:
        return  # driver gone before the handshake; nothing to report to

    def send(msg):
        ctl.send_obj(msg, timeout)

    def open_transport(graph, stack):
        spec = init["resolver_spec"]
        mirror = RemoteWeightMirror(
            wconn, init["stage_shapes"], graph.workers[w].read_stages,
            spec.history, spec.use_t2,
        )
        chans = _SocketChannels(w, timeout, opts["connect_timeout"], handshake, backoff)
        stack.callback(chans.close)
        chans.rewire(init["rewire"], ctl.recv_obj, send)
        stop_beats = threading.Event()
        stack.callback(stop_beats.set)

        def _heartbeat():
            while not stop_beats.wait(opts["heartbeat_interval"]):
                try:
                    send(("hb", w))
                except TransportError:
                    return

        threading.Thread(
            target=_heartbeat, name=f"pipe-sock-hb-{w}", daemon=True
        ).start()
        return mirror, chans, _grads_for_report

    try:
        run_worker(w, init, ctl.recv_obj, send, open_transport)
    finally:
        wconn.close()
        ctl.close()


# -- driver-side pool ----------------------------------------------------------


def _drain(q) -> None:
    with contextlib.suppress(queue.Empty):
        while True:
            q.get_nowait()


class SocketWorkerPool(_WorkerPoolBase):
    """Per-stage workers over framed sockets, behind the unchanged
    issue/collect scheduler surface — ``AsyncPipelineRuntime`` drives it
    exactly like the thread and process pools, so the same ``StepPlan``
    runs bit-for-bit.

    What is different is the failure story.  A :class:`WorkerRegistry`
    tracks every worker's task state, fed by one reader thread per control
    connection (done reports, early losses, heartbeats) and by process
    liveness; ``_peer_failure`` consults it, so a lost worker surfaces as
    a typed :class:`WorkerLostError` instead of a generic deadlock.  On
    loss the pool invalidates all steps issued before the event
    (``_dead_before`` — their collects fail fast rather than waiting out
    the deadlock timeout) and recovers along the cheapest path with budget
    left (:meth:`_handle_loss`): replace the one lost worker in place, or
    tear the whole worker set down and respawn it.  Both run the same
    handshake (:meth:`_start_workers`) — bring-up is "replace every slot,
    no survivors".  The runtime's normal error path then restores the
    latest published weights, so the failed minibatch is simply retried.

    ``family="uds"`` (default) runs over Unix-domain sockets in a private
    tmpdir; ``family="tcp"`` binds loopback TCP with ephemeral ports — the
    single-host stand-in for the multi-host topology, with every byte on a
    real socket either way.
    """

    kind = "socket"

    def __init__(
        self,
        *,
        graph,
        plan,
        stages,
        loss_fn,
        model_spec: ModelSpec,
        deadlock_timeout: float,
        done_grace: float,
        granularity: str = "layer",
        max_workers: int | None = None,
        start_method: str | None = None,
        family: str = "uds",
        host: str = "127.0.0.1",
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float | None = None,
        connect_timeout: float = 10.0,
        handshake_timeout: float = 120.0,
        max_restarts: int = 0,
        max_worker_restarts: int = 0,
        fuse_waves: bool = True,
    ):
        super().__init__(graph, plan, deadlock_timeout, done_grace)
        if family not in ("uds", "tcp"):
            raise ValueError(f"family must be 'uds' or 'tcp', got {family!r}")
        # Fail loudly on a misconfigured net_options dict: a negative
        # timeout or a heartbeat_timeout at/below the beat interval would
        # not error anywhere — it would just mark every healthy worker
        # LOST on the first sweep, which reads like a cluster outage.
        for key, value in (
            ("heartbeat_interval", heartbeat_interval),
            ("connect_timeout", connect_timeout),
            ("handshake_timeout", handshake_timeout),
        ):
            if value <= 0:
                raise ValueError(
                    f"net_options[{key!r}] must be positive, got {value!r}"
                )
        if heartbeat_timeout is not None and heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                f"net_options['heartbeat_timeout'] ({heartbeat_timeout!r}) "
                f"must exceed net_options['heartbeat_interval'] "
                f"({heartbeat_interval!r}); a timeout at or below the beat "
                f"interval marks every healthy worker LOST"
            )
        for key, value in (
            ("max_restarts", max_restarts),
            ("max_worker_restarts", max_worker_restarts),
        ):
            if value < 0:
                raise ValueError(
                    f"net_options[{key!r}] must be >= 0, got {value!r}"
                )
        self._describe_workers(
            stages, loss_fn, model_spec, granularity, max_workers, fuse_waves
        )
        self._start_method = start_method
        self._family = family
        self._host = host
        self._heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else max(10 * heartbeat_interval, 5.0)
        )
        self._handshake_timeout = handshake_timeout
        self._send_timeout = deadlock_timeout + done_grace
        self._worker_opts = {
            "connect_timeout": connect_timeout,
            "handshake_timeout": handshake_timeout,
            "heartbeat_interval": heartbeat_interval,
            "deadlock_timeout": deadlock_timeout,
        }
        self.max_restarts = max_restarts
        self._restarts_left = max_restarts
        self.max_worker_restarts = max_worker_restarts
        self._worker_restarts_left = max_worker_restarts
        self._generation = 0
        self._handshakes = 0  # names fresh uds paths; the quiesce token
        # ("bound", w, addrs) replies of survivors re-opening channels and
        # ("fenced", w, token) replies to the quiesce ping arrive on control
        # connections owned by reader threads; they are routed here for the
        # driver thread running the handshake.
        self._rewire_q: queue.SimpleQueue = queue.SimpleQueue()
        self._fence_q: queue.SimpleQueue = queue.SimpleQueue()
        # Steps issued at or before this sequence died with a lost worker:
        # their collects fail fast with WorkerLostError instead of waiting
        # out the deadlock timeout (the runtime drains them on recovery).
        self._dead_before = 0
        self._lost_worker: int | None = None
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._dir = tempfile.mkdtemp(prefix="pmnet-") if family == "uds" else None
        self.registry = WorkerRegistry(self.num_workers, self._heartbeat_timeout)
        self._ctls: list[Transport | None] = []
        self._weight_conns: list[Transport | None] = []
        # Channels exist only for cross-worker edges (local and external
        # edges never touch a transport), same set worker_rings covers.
        self._cross = [
            (e.index, e.src_worker, e.dst.worker) for e in graph.cross_edges()
        ]
        try:
            self._spawn_workers()
        except BaseException:
            self.close()
            raise

    def _get_done(self, timeout: float):
        return self._done.get(timeout=timeout)

    def _send(self, w: int, cmd: tuple) -> None:
        self._ctls[w].send_obj(cmd, self._send_timeout)

    # -- bring-up and replacement ----------------------------------------------
    def _address(self, name: str) -> str:
        if self._family == "uds":
            return f"uds:{self._dir}/{name}"
        return f"tcp:{self._host}:0"

    def _spawn_workers(self) -> None:
        """Bring up a complete worker generation (construction and every
        generation respawn): fresh registry, every slot started, the whole
        resolvable weight window published."""
        k = self.num_workers
        self._generation += 1
        self.registry = WorkerRegistry(k, self._heartbeat_timeout)
        self._procs = [None] * k
        self._ctls = [None] * k
        self._weight_conns = [None] * k
        self._start_workers(range(k))

    def _start_workers(self, slots) -> None:
        """Start and handshake the workers in ``slots`` — every slot for a
        generation, the one lost slot for an in-place replacement.  Workers
        outside ``slots`` are survivors: they keep their processes, control
        and weight connections and mirror windows, and only re-open the
        channels they share with a started slot.

        1. launch the processes; accept their control (``hello``) and
           weight (``weights``) dial-backs on a fresh bootstrap listener;
        2. send each started worker ``init`` (driver's current persistent
           state, fresh channel addresses) and each affected survivor
           ``rewire`` — both carry the same channel spec, and both answer
           ``bound`` once their listeners stand (survivors from their serve
           loops, so one still aborting the failed step joins as soon as it
           has reported it);
        3. merge the bound addresses and broadcast the map — every listener
           is bound before anyone dials, which makes the mesh handshake
           deadlock-free;
        4. await ``ready`` from the started workers, publish the resolvable
           weight window to their (empty) mirrors alone, and reseed the
           survivors' persistent state from the driver copies (which hold
           only collected-step state) so a retried minibatch replays the
           exact trajectory.

        Any failure raises; the caller falls back to a generation respawn
        or wedges."""
        slots = list(slots)
        k = self.num_workers
        self._handshakes += 1
        name = f"{self._generation}h{self._handshakes}"
        ctx = multiprocessing.get_context(self._start_method or _default_start_method())
        listener = Listener(self._address(f"ctl{name}"), backlog=2 * len(slots))
        try:
            for w in slots:
                proc = ctx.Process(
                    target=_socket_worker_main,
                    args=(w, listener.address, self._worker_opts),
                    name=f"pipe-sock-{name}-{w}",
                    daemon=True,
                )
                proc.start()
                self._procs[w] = proc
            deadline = time.monotonic() + self._handshake_timeout
            for _ in range(2 * len(slots)):
                conn = self._poll(
                    listener.accept, deadline,
                    TransportTimeout(
                        f"worker handshake incomplete after "
                        f"{self._handshake_timeout:g}s"
                    ),
                )
                # Straight into its slot, so a handshake dying partway
                # (worker death, timeout, garbage) leaves every accepted
                # connection where _teardown_workers will find it.
                try:
                    tag, w = conn.recv_obj(self._handshake_timeout)
                    held = {"hello": self._ctls, "weights": self._weight_conns}.get(tag)
                    if held is None or w not in slots or held[w] is not None:
                        raise FrameError(
                            f"unexpected handshake frame {tag!r} from worker {w!r}"
                        )
                    held[w] = conn
                except BaseException:
                    conn.close()  # not in any slot yet; nobody else can
                    raise
        finally:
            listener.close()

        # Each started worker opens every channel it sits on; a survivor
        # re-opens exactly the ones it shares with a started worker.
        specs: dict[int, dict] = {}
        for u in range(k):
            mine = [
                e for e in self._cross
                if u in e[1:] and (e[1] in slots or e[2] in slots)
            ]
            if u in slots or mine:
                listen, dial = _channel_keys(mine, u)
                specs[u] = {
                    "close": [] if u in slots else sorted(listen + dial),
                    "listen": {
                        key: self._address(f"c{name}_{key[0]}{key[1]}")
                        for key in listen
                    },
                    "dial": dial,
                }
        survivors = [u for u in specs if u not in slots]
        for u, spec in specs.items():
            if u in slots:
                self._ctls[u].send_obj(
                    ("init", self._worker_init(u, rewire=spec)), self._handshake_timeout
                )
            else:
                self._send(u, ("rewire", spec))

        # A survivor blocked mid-aborted-step only answers after that
        # step's deadline, so with survivors the wait window covers step
        # deadline + handshake.
        window = self._handshake_timeout + (self._send_timeout if survivors else 0.0)
        addresses: dict[tuple[str, int], str] = {}
        for w in slots:  # no reader thread yet: their reply is read directly
            msg = self._ctls[w].recv_obj(window)
            if msg[0] == "done" and msg[1][2] == "init_error":
                raise msg[1][6]
            if msg[0] != "bound":
                raise FrameError(f"expected bound from worker {w}, got {msg[0]!r}")
            addresses.update(msg[2])
        deadline = time.monotonic() + window
        for _ in survivors:
            msg = self._poll(
                lambda t: self._rewire_q.get(timeout=t), deadline,
                TransportTimeout("survivors did not rebind their channels in time"),
            )
            addresses.update(msg[2])
        for u in specs:
            self._send(u, ("addresses", addresses))
        for w in slots:
            threading.Thread(
                target=self._reader,
                args=(w, self._ctls[w], self.registry),
                name=f"pipe-sock-reader-{name}-{w}",
                daemon=True,
            ).start()
        self._await_ready(slots, window)
        self._publish_window(workers=slots)
        for u in range(k):
            if u not in slots:
                self._push_pstate(u)

    def _await_ready(self, workers, timeout: float) -> None:
        super()._await_ready(workers, timeout)
        for w in workers:
            self.registry.transition(w, TaskState.READY)

    def _reader(self, w: int, conn: Transport, registry: WorkerRegistry) -> None:
        """Drain worker ``w``'s control connection for the lifetime of that
        connection: done reports and early losses go to the done queue,
        heartbeats refresh the registry, handshake replies are routed to
        the driver thread, EOF/corruption marks the worker LOST.  The
        registry is captured, not read off self: after a respawn a
        straggling reader can only mutate its own generation's (discarded)
        records."""
        while True:
            try:
                msg = conn.recv_obj(None)
            except TransportError as exc:
                # Only the connection currently registered for this slot may
                # declare it lost: during a per-worker replacement the old
                # conn is closed and its slot re-pointed at the new one, so
                # a straggling reader observing the *old* socket die must
                # not poison the replacement's record.
                ctls = self._ctls
                if w < len(ctls) and ctls[w] is conn:
                    registry.mark_lost(w, f"worker {w} connection lost ({exc})")
                return
            registry.beat(w)
            if msg[0] == "hb":
                continue
            if msg[0] == "bound":
                self._rewire_q.put(msg)
            elif msg[0] == "fenced":
                self._fence_q.put(msg)
            elif msg[0] == "done":
                report = msg[1]
                if report[2] in ("ok", "error", "deadlock"):
                    try:
                        registry.transition(w, TaskState.READY)
                    except RuntimeError:
                        pass  # racing a LOST mark; LOST wins
                self._done.put(report)
            else:
                registry.mark_lost(w, f"worker {w} spoke garbage ({msg[0]!r})")
                return

    # -- failure detection -----------------------------------------------------
    def _peer_failure(self) -> str | None:
        # A slot being replaced is judged by its process alone: the registry
        # ignores LOST marks for it while the handshake is in progress.
        for w, why in self._dead_procs():
            if self.registry[w].state is TaskState.REPLACING:
                self._lost_worker = w
                return f"replacement for worker {w} died mid-handshake: {why}"
            self.registry.mark_lost(w, why)
        rec = self.registry.first_lost()
        if rec is None:
            return None
        self._lost_worker = rec.worker
        return f"pipeline worker {rec.worker} was lost: {rec.reason}"

    def _peer_error(self, dead: str) -> BaseException:
        return WorkerLostError(dead, worker=self._lost_worker)

    def _unreachable(self, w: int, where: str, exc: BaseException) -> WorkerLostError:
        self.registry.mark_lost(w, f"unreachable at {where} ({exc})")
        return WorkerLostError(f"pipeline worker {w} is gone ({exc})", worker=w)

    # -- scheduler surface -----------------------------------------------------
    def issue(self, t, sync, ext, ys, scales, num_microbatches) -> int:
        self._seq += 1
        self._issued.append(self._seq)
        for w in range(len(self._ctls)):
            try:
                self._send(w, self._step_command(w, t, sync, ext, ys, scales))
            except TransportError as exc:
                # The worker died between steps.  Nobody will ever collect
                # this sequence (the runtime has not recorded it yet), so
                # withdraw it before handling the loss.
                err = self._unreachable(w, "issue", exc)
                self._issued.pop()
                self._handle_loss()
                raise err from None
            try:
                self.registry.transition(w, TaskState.RUNNING)
            except RuntimeError:
                pass  # already LOST or still RUNNING a buffered prior step
        return self._seq

    def collect(self):
        if self._issued[0] <= self._dead_before:
            seq = self._issued.popleft()
            raise WorkerLostError(
                f"step {seq} was in flight when a worker was lost; its "
                f"results are gone (weights were restored to the latest "
                f"published version)",
                worker=self._lost_worker,
            )
        try:
            return super().collect()
        except (WorkerLostError, TransportClosed) as exc:
            err = (
                exc
                if isinstance(exc, WorkerLostError)
                else WorkerLostError(f"a worker's channel closed mid-step: {exc}")
            )
            self._handle_loss()
            raise err from exc

    def await_losses(self, seq: int):
        if seq <= self._dead_before:
            return None
        return super().await_losses(seq)

    def publish_plan_state(self) -> None:
        self._publish_versions([self.plan.store.latest_version])

    def full_resync(self) -> None:
        """Checkpoint restore: clear every remote window, republish the
        resolvable versions, then fence each worker through its control
        channel (FIFO with the next step command) so a stale higher
        ``latest`` can never satisfy a gate against the restored
        timeline."""
        self._to_weight_conns(
            lambda w, conn: conn.send_frame(K_RESET, (), self._send_timeout)
        )
        self._publish_window()
        v = self.plan.store.latest_version
        for w in range(len(self._ctls)):
            try:
                self._send(w, ("resync", v))
                self._push_pstate(w)
            except TransportError as exc:
                self.wedged = True
                raise self._unreachable(w, "resync", exc) from None

    def _publish_window(self, workers=None) -> None:
        """Publish every resolvable resident version — to all workers on a
        checkpoint restore, or (``workers=...``) to just the started ones
        whose fresh mirrors are empty while survivors keep their windows."""
        plan = self.plan
        resident = set(plan.store.resident_versions(0))
        self._publish_versions(
            sorted(set(plan.resolvable_versions()) & resident), workers
        )

    def _publish_versions(self, versions, workers=None) -> None:
        """Push ``versions`` (and the current T2 velocities) to each
        worker's mirror — *its* stages only: worker ``w`` is sent
        ``read_stages`` of its slice, so a boundary moves about one model's
        worth of bytes in total however many workers there are.  Velocity
        first, version last, per connection: in-order frame delivery makes
        the version frame the release operation, same as the shared
        mirror's header bump."""
        plan, store = self.plan, self.plan.store

        def publish(w, conn):
            stages = self.driver_workers[w].read_stages
            if plan.corrector is not None:
                conn.send_arrays(
                    K_VELOCITY,
                    _flatten(plan.corrector.velocity[s] for s in stages),
                    -1, self._send_timeout,
                )
            for v in versions:
                conn.send_arrays(
                    K_WEIGHTS, _flatten(store.weights(s, v) for s in stages),
                    v, self._send_timeout,
                )

        self._to_weight_conns(publish, workers)

    def _to_weight_conns(self, send, workers=None) -> None:
        """``send(w, conn)`` on every live weight connection (or only
        those of ``workers``).  A dead one wedges the pool — after the
        rest were served: an in-place replacement refills the replaced
        worker's mirror alone, so a survivor skipped here would wait for
        this version forever."""
        lost = None
        for w, conn in enumerate(self._weight_conns):
            if conn is None or (workers is not None and w not in workers):
                continue
            try:
                send(w, conn)
            except TransportError as exc:
                self.wedged = True
                lost = lost or self._unreachable(w, "publish", exc)
        if lost is not None:
            raise lost

    # -- loss handling ---------------------------------------------------------
    def _drain_residue(self) -> None:
        self._buffered.clear()
        self._early_losses.clear()
        _drain(self._done)

    def _handle_loss(self) -> None:
        """A worker is LOST.  Invalidate everything issued before now, then
        recover along the cheapest path that still has budget:

        1. *Per-worker replacement* (``max_worker_restarts``): exactly one
           worker is lost — restart just that slot inside the current
           generation (see :meth:`_replace_worker`).
        2. *Generation respawn* (``max_restarts``): connections,
           processes, registry and remote weight windows are replaced
           wholesale — the fallback when several workers died at once or
           a replacement handshake itself failed.
        3. *Wedge*: no budget left; every further step raises.

        Either recovery leaves the failed minibatch for the caller to
        retry (collects for steps at or before ``_dead_before`` fail fast
        with :class:`WorkerLostError`)."""
        self._dead_before = self._seq
        self._drain_residue()
        lost = [
            w
            for w, s in enumerate(self.registry.states())
            if s is TaskState.LOST
        ]
        if len(lost) == 1 and self._worker_restarts_left > 0:
            self._worker_restarts_left -= 1
            try:
                self._replace_worker(lost[0])
            except BaseException:
                # The replacement handshake failed (slot or a survivor went
                # down mid-rewire, or it timed out).  Record the outcome and
                # fall through to the blunt recovery below.
                try:
                    self.registry.transition(
                        lost[0], TaskState.LOST, "replacement handshake failed"
                    )
                except RuntimeError:
                    pass  # already LOST (e.g. a survivor died instead)
                self._drain_residue()
            else:
                self.wedged = False
                return
        if self._restarts_left > 0:
            self._restarts_left -= 1
            self._teardown_workers()
            try:
                self._spawn_workers()
            except BaseException:
                self.wedged = True  # respawn itself failed; no third option
                raise
            self.wedged = False
        else:
            self.wedged = True

    def _replace_worker(self, w: int) -> None:
        """Restart slot ``w`` inside the current generation: retire the old
        slot (null the conn slots first, so the straggling reader cannot
        poison the new record; reap the process; registry LOST →
        REPLACING), run the bring-up handshake for that one slot with every
        other worker a survivor, then fence all serve loops."""
        for held in (self._ctls, self._weight_conns):
            conn, held[w] = held[w], None
            if conn is not None:
                conn.close()
        proc, self._procs[w] = self._procs[w], None
        reap([proc])
        self.registry.transition(w, TaskState.REPLACING)
        _drain(self._rewire_q)  # residue from an earlier failed attempt
        _drain(self._fence_q)
        self._start_workers([w])
        self._await_quiesce(self._handshakes)

    def _await_quiesce(self, token: int) -> None:
        """Fence every worker's serve loop before the caller may retry.

        The rewire handshake only synchronizes the dead worker's mesh
        *neighbors*; a survivor elsewhere in the pipeline can still be
        blocked inside an aborted step — or, with the overlapped boundary,
        still hold a queued step command issued before the loss.  Such a
        straggler waits on channel recvs for a *stale* step tag, and the
        tag-discard rule would make it consume and drop the retried step's
        payloads, starving the whole pipeline.  (Generation respawn never
        faces this: teardown kills every straggler.)

        A ``fence`` ping rides the FIFO control channel behind everything
        already queued, so the ``fenced`` reply proves the worker is back
        in its serve loop with no step commands outstanding.  Each queued
        zombie step can burn a full deadlock window before aborting, so
        the deadline scales with the in-flight count."""
        for w in range(self.num_workers):
            self._send(w, ("fence", token))
        waiting = set(range(self.num_workers))
        deadline = time.monotonic() + (
            self.deadlock_timeout * (len(self._issued) + 1)
            + self.done_grace
            + self._handshake_timeout
        )
        while waiting:
            _, ww, tok = self._poll(
                lambda t: self._fence_q.get(timeout=t), deadline,
                TransportTimeout(
                    f"workers {sorted(waiting)} did not quiesce after a "
                    f"replacement"
                ),
            )
            if tok == token:
                waiting.discard(ww)
        self._drain_residue()

    def _teardown_workers(self) -> None:
        for conn in self._ctls:
            if conn is not None:
                with contextlib.suppress(TransportError):
                    conn.send_obj(("shutdown",), 0.5)
        for conn in list(self._ctls) + list(self._weight_conns):
            if conn is not None:
                conn.close()
        self._ctls = []
        self._weight_conns = []
        reap(self._procs)
        self._procs = []

    def close(self) -> None:
        self._teardown_workers()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


def _flatten(per_stage) -> tuple:
    """Per-stage array lists as the flat tuple a weight frame carries (the
    remote mirror regroups by its read stages' shape counts from init)."""
    return tuple(arr for stage in per_stage for arr in stage)
