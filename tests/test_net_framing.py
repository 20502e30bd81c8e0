"""Property tests for the socket wire format.

The frame codec is the network twin of ``ShmRing.send_msg``/``recv_msg``
and carries the same bit-determinism obligation: every payload must come
back with the sender's exact value, dtype, shape **and memory layout**
(BLAS kernels take different floating-point paths for different strides).
These tests sweep it over shapes × dtypes × C/F/transposed layouts ×
``None`` parts × zero-size arrays — mirroring the ShmRing layout
regression suite — twice: through the ``encode_arrays``/``decode_arrays``
wrappers and through the path the runtime uses, a scatter-gather
``send_msg`` into a ``recv_msg`` whose arrays view the receive buffer.
Then the garbled-stream contract: any header that cannot describe a real
array raises :class:`FrameError`, and a flipped bit anywhere in a frame
never yields a payload.

The ``Transport`` half runs over ``socketpair()`` plus real UDS/TCP
listeners: round trips, deadline behaviour, peer-close semantics,
out-of-band control-message buffers and wire-byte accounting.  The
``RemoteWeightMirror`` tests drive the worker side of the weight protocol
from a hand-held driver socket.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.pipeline import net
from repro.pipeline.net import (
    _HDR,
    _IOV_MAX,
    _MAGIC,
    K_ARRAYS,
    K_OBJ,
    K_RESET,
    K_VELOCITY,
    K_WEIGHTS,
    FrameError,
    Listener,
    RemoteWeightMirror,
    Transport,
    connect,
    decode_arrays,
    encode_arrays,
)
from repro.pipeline.registry import Backoff
from repro.pipeline.transport import (
    _RING_DTYPES,
    TransportClosed,
    TransportError,
    TransportTimeout,
    pack_lanes,
    unpack_lanes,
)

pytestmark = pytest.mark.net

SHAPES = [(), (0,), (3,), (2, 3), (4, 1, 3), (2, 3, 4, 5)]


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    ta, tb = Transport(a), Transport(b)
    yield ta, tb
    ta.close()
    tb.close()


@pytest.fixture(params=["codec", "socket"])
def roundtrip(request):
    """A payload there and back: through the encode/decode wrappers, or
    over a real socket through the scatter-gather send and the viewing
    receive (payloads here fit the socket buffer, so one thread can do
    both halves)."""
    if request.param == "codec":
        def go(payload, step=0):
            got_step, got = decode_arrays(encode_arrays(payload, step))
            assert got_step == step
            return got
    else:
        ta, tb = request.getfixturevalue("pair")

        def go(payload, step=0):
            ta.send_msg(payload, step, timeout=5.0)
            got_step, got = tb.recv_msg(timeout=5.0)
            assert got_step == step
            return got
    return go


def assert_same_array(out, src):
    assert out.dtype == src.dtype
    assert out.shape == src.shape
    np.testing.assert_array_equal(out, src)
    if src.size:
        # Axes of size <= 1 carry arbitrary strides (relaxed stride
        # checking) and no BLAS kernel can observe them; compare the
        # strides that matter.  Zero-size arrays have none at all.
        def effective(a):
            return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)

        assert effective(out) == effective(src), (
            "memory layout must survive the wire"
        )
    assert not np.shares_memory(out, src)  # the receiver's own memory


def make_array(shape, dtype, order, rng):
    if np.issubdtype(dtype, np.floating):
        arr = rng.normal(size=shape).astype(dtype)
    elif dtype == np.bool_:
        arr = rng.integers(0, 2, size=shape).astype(np.bool_)
    else:
        arr = rng.integers(-50, 50, size=shape).astype(dtype)
    if order == "F":
        return np.asfortranarray(arr)
    if order == "T":
        if arr.ndim < 2:
            return arr
        return np.ascontiguousarray(arr.transpose()).transpose()
    return np.ascontiguousarray(arr)


class TestCodec:
    @pytest.mark.parametrize("dtype", _RING_DTYPES, ids=str)
    @pytest.mark.parametrize("order", ["C", "F", "T"])
    def test_single_arrays_survive_value_dtype_shape_layout(
        self, rng, roundtrip, dtype, order
    ):
        for shape in SHAPES:
            src = make_array(shape, dtype, order, rng)
            assert_same_array(roundtrip(src), src)

    def test_bare_array_stays_bare_and_tuple_stays_tuple(self, rng, roundtrip):
        bare = rng.normal(size=(3, 2))
        out = roundtrip(bare)
        assert isinstance(out, np.ndarray)
        out = roundtrip((bare,))
        assert isinstance(out, tuple) and len(out) == 1

    def test_multipart_tuples_with_none_and_zero_size(self, rng, roundtrip):
        payload = (
            rng.normal(size=(2, 3)),
            None,
            np.zeros((0, 4)),
            rng.integers(0, 9, size=(5,)),
            None,
            np.float64(3.25).reshape(()),  # 0-d
        )
        out = roundtrip(payload, step=7)
        assert len(out) == len(payload)
        for got, src in zip(out, payload):
            if src is None:
                assert got is None
            else:
                assert_same_array(got, np.asarray(src))

    def test_empty_tuple(self, roundtrip):
        assert roundtrip(()) == ()

    def test_step_tags_roundtrip_including_negative(self, rng):
        arr = rng.normal(size=(2,))
        for step in (0, 1, -1, 2**40, -(2**40)):
            got_step, _ = decode_arrays(encode_arrays(arr, step))
            assert got_step == step

    def test_noncontiguous_view_values_survive(self, rng, roundtrip):
        base = rng.normal(size=(4, 6, 5))
        view = base[:, ::2, :]  # gaps: C-copy fallback, values must survive
        out = roundtrip(view)
        np.testing.assert_array_equal(out, view)
        assert out.flags.c_contiguous

    def test_transposed_nchw_intermediate_keeps_its_strides(self, rng, roundtrip):
        """What BatchNorm/GroupNorm hand downstream: NHWC memory viewed as
        NCHW — neither C nor Fortran order."""
        src = rng.normal(size=(2, 5, 5, 3)).transpose(0, 3, 1, 2)
        assert not src.flags.c_contiguous and not src.flags.f_contiguous
        assert_same_array(roundtrip(src), src)

    def test_mixed_width_parts_stay_aligned(self, rng, roundtrip):
        """Part sizes that are not multiples of 8 are padded on the wire,
        so every decoded view starts on an 8-byte boundary."""
        payload = (
            np.array([True, False, True]),
            rng.normal(size=(3, 3)),
            rng.normal(size=(5,)).astype(np.float32),
            np.arange(7, dtype=np.int64),
        )
        out = roundtrip(payload)
        for got, src in zip(out, payload):
            assert_same_array(got, src)
            assert got.flags.aligned
            assert got.ctypes.data % 8 == 0

    def test_unsupported_dtype_is_rejected_at_encode(self):
        with pytest.raises(TypeError, match="cannot frame dtype"):
            encode_arrays(np.zeros(3, dtype=np.complex128), 0)


class TestGarbledFrames:
    """Every malformed body must raise FrameError — never garbage arrays,
    never an unbounded allocation."""

    def body(self, rng):
        return bytearray(
            encode_arrays((rng.normal(size=(2, 3)), rng.normal(size=(4,))), 5)
        )

    def test_truncated_everywhere_is_rejected(self, rng):
        body = self.body(rng)
        for cut in (0, 5, 23, 24, 40, len(body) // 2, len(body) - 1):
            with pytest.raises(FrameError):
                decode_arrays(bytes(body[:cut]))

    def test_trailing_bytes_are_rejected(self, rng):
        with pytest.raises(FrameError, match="trailing"):
            decode_arrays(bytes(self.body(rng)) + b"\x00")

    def test_bad_payload_kind_and_counts(self, rng):
        body = self.body(rng)
        bad = body.copy()
        struct.pack_into("<q", bad, 8, 7)  # payload kind 7
        with pytest.raises(FrameError, match="garbled array frame header"):
            decode_arrays(bytes(bad))
        bad = body.copy()
        struct.pack_into("<q", bad, 16, -2)  # negative nparts
        with pytest.raises(FrameError):
            decode_arrays(bytes(bad))

    def test_bad_dtype_code_and_ndim(self, rng):
        body = self.body(rng)
        bad = body.copy()
        struct.pack_into("<q", bad, 24 + 8, 99)  # dtype code of part 0
        with pytest.raises(FrameError, match="garbled part header"):
            decode_arrays(bytes(bad))
        bad = body.copy()
        struct.pack_into("<q", bad, 24 + 16, 99)  # ndim of part 0
        with pytest.raises(FrameError, match="garbled part header"):
            decode_arrays(bytes(bad))

    def test_perm_that_is_not_a_permutation(self, rng):
        body = self.body(rng)
        # part 0 is (2, 3): base 24 + part header 32 + shape 16 → perm at 72
        struct.pack_into("<qq", body, 72, 0, 0)
        with pytest.raises(FrameError, match="perm"):
            decode_arrays(bytes(body))

    def test_negative_shape_is_rejected(self, rng):
        body = self.body(rng)
        struct.pack_into("<q", body, 24 + 32, -3)  # first shape entry
        with pytest.raises(FrameError):
            decode_arrays(bytes(body))

    def test_nbytes_header_mismatch(self, rng):
        body = self.body(rng)
        # nbytes field of part 0 (claims 48 for a (2,3) float64)
        struct.pack_into("<q", body, 24 + 24, 8)
        with pytest.raises(FrameError, match="does not match its header"):
            decode_arrays(bytes(body))


class TestTransport:
    def test_msg_roundtrip_with_step_tags(self, rng, pair):
        ta, tb = pair
        src = (rng.normal(size=(3, 4)), None, np.asfortranarray(rng.normal(size=(2, 2))))
        ta.send_msg(src, step=-3, timeout=5.0)
        step, out = tb.recv_msg(timeout=5.0)
        assert step == -3
        for got, want in zip(out, src):
            if want is None:
                assert got is None
            else:
                assert_same_array(got, want)
        assert ta.xfer_seconds > 0 and tb.xfer_seconds > 0

    def test_recv_idle_wait_is_not_transport_time(self, rng, pair):
        """Regression: the receive clock used to start before the blocking
        wait for the peer, so a receiver idling on a quiet producer booked
        the whole wait as transport — the bubble showed up in
        ``transport_fraction``.  The clock starts when the frame header
        arrives, matching ShmRing (which times after its slot wait)."""
        ta, tb = pair
        src = rng.normal(size=(4, 4))

        def late_sender():
            time.sleep(0.2)
            ta.send_msg(src, step=1, timeout=5.0)

        sender = threading.Thread(target=late_sender)
        sender.start()
        t0 = time.perf_counter()
        step, out = tb.recv_msg(timeout=5.0)
        waited = time.perf_counter() - t0
        sender.join(timeout=5.0)
        assert not sender.is_alive()
        assert step == 1
        assert_same_array(out, src)
        assert waited >= 0.15, "receiver did not actually idle on the producer"
        assert 0.0 < tb.xfer_seconds < 0.05, (
            f"idle wait booked as transport: xfer_seconds={tb.xfer_seconds:.3f}"
        )

    def test_obj_roundtrip(self, pair):
        ta, tb = pair
        ta.send_obj(("hello", 3, {"a": [1, 2]}), timeout=5.0)
        assert tb.recv_obj(timeout=5.0) == ("hello", 3, {"a": [1, 2]})

    def test_recv_deadline_raises_typed_timeout(self, pair):
        _, tb = pair
        with pytest.raises(TransportTimeout, match="stalled"):
            tb.recv_frame(timeout=0.1)

    def test_peer_close_raises_typed_closed(self, pair):
        ta, tb = pair
        ta.close()
        with pytest.raises(TransportClosed, match="closed the connection"):
            tb.recv_frame(timeout=5.0)

    def test_truncated_frame_raises_closed_mid_frame(self, pair):
        ta, tb = pair
        body = encode_arrays(np.zeros(8), 1)
        header = _HDR.pack(_MAGIC, K_ARRAYS, len(body), zlib.crc32(body))
        ta._sock.sendall(header + body[: len(body) // 2])
        ta.close()
        with pytest.raises(TransportClosed, match="mid-frame"):
            tb.recv_frame(timeout=5.0)

    def test_flipped_byte_fails_the_checksum(self, pair):
        ta, tb = pair
        body = bytearray(encode_arrays(np.arange(8.0), 1))
        header = _HDR.pack(_MAGIC, K_ARRAYS, len(body), zlib.crc32(bytes(body)))
        body[-1] ^= 0x40  # corrupt one payload byte in transit
        ta._sock.sendall(header + bytes(body))
        with pytest.raises(FrameError, match="checksum"):
            tb.recv_frame(timeout=5.0)

    def test_bad_magic_is_rejected(self, pair):
        ta, tb = pair
        ta._sock.sendall(_HDR.pack(0xDEADBEEF, K_OBJ, 0, 0))
        with pytest.raises(FrameError, match="magic"):
            tb.recv_frame(timeout=5.0)

    def test_absurd_length_is_rejected_before_allocating(self, pair):
        ta, tb = pair
        ta._sock.sendall(_HDR.pack(_MAGIC, K_OBJ, 1 << 50, 0))
        with pytest.raises(FrameError, match="cap"):
            tb.recv_frame(timeout=5.0)

    def test_wrong_frame_kind_for_msg(self, pair):
        ta, tb = pair
        ta.send_obj("not arrays", timeout=5.0)
        with pytest.raises(FrameError, match="expected an ARRAYS frame"):
            tb.recv_msg(timeout=5.0)

    def test_send_after_close_raises_closed(self, pair):
        ta, _ = pair
        ta.close()
        with pytest.raises(TransportClosed, match="closed"):
            ta.send_obj("x", timeout=1.0)

    def test_concurrent_send_and_recv_deadlines_are_independent(self, pair):
        # The endpoint is explicitly shared between a sender and a
        # receiver thread (driver reader vs issue(); worker serve loop vs
        # heartbeat).  Deadlines must be per-operation: a finite send
        # timeout racing a blocking recv on the same socket must neither
        # time the recv out spuriously nor let the send inherit the
        # recv's infinite wait.
        ta, tb = pair
        errs: list[BaseException] = []
        got: list[object] = []

        def receiver():
            try:
                for _ in range(200):
                    got.append(tb.recv_obj(None))  # blocking, no deadline
            except BaseException as exc:  # noqa: BLE001 — asserted below
                errs.append(exc)

        def sender():
            try:
                for i in range(200):
                    ta.send_obj(("msg", i), timeout=0.05)
            except BaseException as exc:  # noqa: BLE001 — asserted below
                errs.append(exc)

        threads = [
            threading.Thread(target=receiver),
            threading.Thread(target=sender),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errs
        assert not any(t.is_alive() for t in threads)
        assert got == [("msg", i) for i in range(200)]
        # A finite recv deadline still fires on the shared socket.
        with pytest.raises(TransportTimeout, match="stalled"):
            tb.recv_frame(timeout=0.1)


def arrays_in(obj):
    """Every ndarray nested in a control message, in traversal order."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from arrays_in(item)


def raw_frame(kind, chunks) -> bytes:
    """A whole frame as the bytes a correct sender puts on the stream."""
    body = b"".join(bytes(c) for c in chunks)
    return _HDR.pack(_MAGIC, kind, len(body), zlib.crc32(body)) + body


class TestOneCopyPath:
    """The scatter-gather send and the viewing receive."""

    def test_decoded_arrays_outlive_the_next_frames(self, rng, pair):
        """Each frame is received into its own buffer: arrays handed out
        for one frame must not change when later frames arrive."""
        ta, tb = pair
        sent = [rng.normal(size=(16, 16)) for _ in range(4)]
        kept = []
        for i, src in enumerate(sent):
            ta.send_msg((src, np.asfortranarray(src)), step=i, timeout=5.0)
            kept.append(tb.recv_msg(timeout=5.0)[1])
        for src, (c_order, f_order) in zip(sent, kept):
            np.testing.assert_array_equal(c_order, src)
            assert_same_array(f_order, np.asfortranarray(src))
        c_order[...] = 0.0  # writable, and nobody else's memory
        np.testing.assert_array_equal(kept[0][0], sent[0])

    def test_frame_larger_than_the_socket_buffer(self, rng, pair):
        """Partial sendmsg()s resume mid-buffer; the receiver sees one
        intact frame."""
        ta, tb = pair
        src = (rng.normal(size=(512, 300)), np.asfortranarray(rng.normal(size=(300, 512))))
        sender = threading.Thread(target=ta.send_msg, args=(src, 9, 10.0))
        sender.start()
        step, out = tb.recv_msg(timeout=10.0)
        sender.join(timeout=10.0)
        assert not sender.is_alive()
        assert step == 9
        for got, want in zip(out, src):
            assert_same_array(got, want)

    def test_more_parts_than_one_sendmsg_takes(self, rng, pair):
        ta, tb = pair
        src = tuple(rng.normal(size=(3,)) for _ in range(2 * _IOV_MAX + 5))
        ta.send_msg(src, step=1, timeout=5.0)
        _, out = tb.recv_msg(timeout=5.0)
        assert len(out) == len(src)
        for got, want in zip(out, src):
            np.testing.assert_array_equal(got, want)

    def test_wire_bytes_are_counted_on_both_ends(self, rng, pair):
        ta, tb = pair
        src = (rng.normal(size=(5, 7)), None, np.arange(3, dtype=np.int8))
        ta.send_msg(src, step=0, timeout=5.0)
        tb.recv_msg(timeout=5.0)
        want = _HDR.size + len(encode_arrays(src, 0))
        assert ta.bytes_sent == tb.bytes_received == want
        assert ta.bytes_received == tb.bytes_sent == 0
        tb.send_obj(("ack", 1), timeout=5.0)
        ta.recv_obj(timeout=5.0)
        assert 0 < tb.bytes_sent == ta.bytes_received

    def test_report_and_command_arrays_travel_out_of_band(self, rng, pair):
        """A done report's gradients and a step command's minibatch leave
        the pickle: contiguous arrays (C or Fortran) ride as raw buffers
        in the same frame, strided ones fall back to the in-band copy —
        all bit-exact, layout included."""
        ta, tb = pair
        big = rng.normal(size=(64, 48))
        grads = [big, np.asfortranarray(big), big[::2, ::3], np.zeros((0, 4))]
        batch = rng.normal(size=(12, 6))
        report = ("done", (1, 7, "ok", 0.5, 0.0, 0.0,
                           (None, None, [(0, [0, 1, 2, 3], grads)], ((1, 0.5, 0.0, 0.0),))))
        command = ("step", 8, 3, False, [0.5, 0.5],
                   {0: [batch[:6], batch[6:]]}, np.arange(12))
        for msg in (report, command):
            chunks = net._obj_chunks(msg)
            ta.send_frame(K_OBJ, chunks, timeout=5.0)
            got = tb.recv_obj(timeout=5.0)
            flat_src, flat_got = list(arrays_in(msg)), list(arrays_in(got))
            assert len(flat_src) == len(flat_got) > 0
            for out, src in zip(flat_got, flat_src):
                if src.flags.c_contiguous or src.flags.f_contiguous:
                    assert_same_array(out, src)
                else:  # pickle's own C-order copy: values are the contract
                    np.testing.assert_array_equal(out, src)
        # The pickle itself stays small: the two contiguous 24 KiB grads
        # are chunks of their own, not bytes inside it.
        chunks = net._obj_chunks(report)
        assert len(chunks[1]) < big.nbytes
        assert sum(len(c) == big.nbytes for c in chunks) == 2

    @pytest.mark.parametrize("what", ["arrays", "object"])
    def test_any_flipped_bit_is_rejected(self, rng, what):
        """Flip one bit at every offset of a frame — frame header, part
        headers, padding, payload, pickle, out-of-band buffers: the
        receiver raises FrameError (or, when the flip lengthens the frame,
        runs into the end of the stream) and never returns a payload."""
        if what == "arrays":
            kind = K_ARRAYS
            chunks = net._array_chunks(
                (rng.normal(size=(2, 3)), None, np.array([True, False, True])), 4
            )
        else:
            kind = K_OBJ
            chunks = net._obj_chunks(("done", [rng.normal(size=(3, 2))], "x"))
        frame = raw_frame(kind, chunks)
        length_field = range(8, 16)
        for offset in range(len(frame)):
            bad = bytearray(frame)
            bad[offset] ^= 0x10
            a, b = socket.socketpair()
            rx = Transport(b)
            try:
                a.sendall(bad)
                a.close()
                expected = (
                    (FrameError, TransportClosed)
                    if offset in length_field
                    else FrameError
                )
                with pytest.raises(expected):
                    rx.recv_msg(5.0) if kind == K_ARRAYS else rx.recv_obj(5.0)
            finally:
                rx.close()

    def test_stream_cut_anywhere_raises_closed(self, rng):
        frame = raw_frame(K_ARRAYS, net._array_chunks(rng.normal(size=(4, 4)), 2))
        for cut in range(0, len(frame), 7):
            a, b = socket.socketpair()
            rx = Transport(b)
            try:
                a.sendall(frame[:cut])
                a.close()
                with pytest.raises(TransportClosed, match="closed the connection"):
                    rx.recv_msg(5.0)
            finally:
                rx.close()


class TestRemoteWeightMirror:
    """The worker's end of the weight socket, fed by a hand-held driver:
    it mirrors only its read stages, in ascending stage order."""

    SHAPES = [[(2, 3), (3,)], [(4, 2)], [(5,), (5, 5)], [(1,)]]

    def stage_arrays(self, rng, stage):
        return [rng.normal(size=shape) for shape in self.SHAPES[stage]]

    @pytest.fixture
    def mirrored(self, pair):
        driver, conn = pair
        mirror = RemoteWeightMirror(
            conn, self.SHAPES, read_stages=[0, 2], history=2, with_velocity=True
        )
        return driver, mirror

    def publish(self, driver, kind, version, *stages):
        flat = tuple(arr for stage in stages for arr in stage)
        driver.send_arrays(kind, flat, version, timeout=5.0)

    def test_window_holds_the_read_stages_only(self, rng, mirrored):
        driver, mirror = mirrored
        w0, w2 = self.stage_arrays(rng, 0), self.stage_arrays(rng, 2)
        v0, v2 = self.stage_arrays(rng, 0), self.stage_arrays(rng, 2)
        self.publish(driver, K_VELOCITY, -1, v0, v2)
        self.publish(driver, K_WEIGHTS, 0, w0, w2)
        mirror.wait_version(0, timeout=5.0)
        for stage, weights, velocity in ((0, w0, v0), (2, w2, v2)):
            for got, want in zip(mirror.weights(stage, 0), weights, strict=True):
                assert_same_array(got, want)
                assert not got.flags.writeable
            for got, want in zip(mirror.velocity(stage), velocity, strict=True):
                assert_same_array(got, want)

    def test_unread_stage_is_a_typed_error_naming_the_read_set(self, rng, mirrored):
        driver, mirror = mirrored
        self.publish(driver, K_VELOCITY, -1,
                     self.stage_arrays(rng, 0), self.stage_arrays(rng, 2))
        self.publish(driver, K_WEIGHTS, 0,
                     self.stage_arrays(rng, 0), self.stage_arrays(rng, 2))
        mirror.wait_version(0, timeout=5.0)
        for read in (lambda: mirror.weights(1, 0), lambda: mirror.velocity(3)):
            with pytest.raises(RuntimeError, match=r"read set, stages \[0, 2\]"):
                read()

    def test_whole_model_frame_is_rejected(self, rng, mirrored):
        """A driver that broadcast every stage would trip the array-count
        check; the fault surfaces at the next gate wait."""
        driver, mirror = mirrored
        self.publish(driver, K_WEIGHTS, 0, *(self.stage_arrays(rng, s) for s in range(4)))
        with pytest.raises(TransportClosed, match="carried 6 arrays, expected 4"):
            mirror.wait_version(0, timeout=5.0)

    def test_reset_fence_and_window_eviction(self, rng, mirrored):
        driver, mirror = mirrored
        for v in range(4):
            self.publish(driver, K_WEIGHTS, v,
                         self.stage_arrays(rng, 0), self.stage_arrays(rng, 2))
        mirror.wait_version(3, timeout=5.0)
        with pytest.raises(KeyError, match="not resident in remote mirror"):
            mirror.weights(0, 1)  # history=2 keeps versions 2 and 3
        driver.send_frame(K_RESET, (), timeout=5.0)
        self.publish(driver, K_WEIGHTS, 1,
                     self.stage_arrays(rng, 0), self.stage_arrays(rng, 2))
        mirror.await_reset(1, timeout=5.0)
        assert mirror.latest_version == 1
        assert len(mirror.weights(2, 1)) == 2

    def test_loads_do_not_wait_for_a_frame_being_decoded(
        self, rng, mirrored, monkeypatch
    ):
        """Regression: the drainer used to decode and copy a frame while
        holding the mirror's lock, so every per-wave ``weights()`` call
        stalled for the whole decode of a version it did not need."""
        driver, mirror = mirrored
        self.publish(driver, K_WEIGHTS, 0,
                     self.stage_arrays(rng, 0), self.stage_arrays(rng, 2))
        mirror.wait_version(0, timeout=5.0)
        decoding, release = threading.Event(), threading.Event()
        real_decode = net.decode_arrays

        def slow_decode(body):
            decoding.set()
            assert release.wait(10.0)
            return real_decode(body)

        monkeypatch.setattr(net, "decode_arrays", slow_decode)
        self.publish(driver, K_WEIGHTS, 1,
                     self.stage_arrays(rng, 0), self.stage_arrays(rng, 2))
        assert decoding.wait(5.0)
        got: list = []
        reader = threading.Thread(target=lambda: got.append(mirror.weights(0, 0)))
        reader.start()
        reader.join(timeout=5.0)
        stalled = reader.is_alive()
        release.set()
        reader.join(timeout=5.0)
        assert not stalled, "weights() waited for an unrelated frame's decode"
        assert len(got) == 1
        mirror.wait_version(1, timeout=5.0)


class TestEndpoints:
    def test_uds_listener_connect_roundtrip(self, rng, tmp_path):
        lis = Listener(f"uds:{tmp_path}/s")
        try:
            dial = connect(lis.address, timeout=5.0)
            serve = lis.accept(timeout=5.0)
            arr = rng.normal(size=(4, 4))
            dial.send_msg(arr, step=2, timeout=5.0)
            step, out = serve.recv_msg(timeout=5.0)
            assert step == 2
            np.testing.assert_array_equal(out, arr)
            dial.close(); serve.close()
        finally:
            lis.close()

    def test_tcp_listener_resolves_ephemeral_port(self, rng):
        lis = Listener("tcp:127.0.0.1:0")
        try:
            assert not lis.address.endswith(":0")
            dial = connect(lis.address, timeout=5.0)
            serve = lis.accept(timeout=5.0)
            serve.send_obj("over tcp", timeout=5.0)
            assert dial.recv_obj(timeout=5.0) == "over tcp"
            dial.close(); serve.close()
        finally:
            lis.close()

    def test_accept_deadline_is_typed(self, tmp_path):
        lis = Listener(f"uds:{tmp_path}/s2")
        try:
            with pytest.raises(TransportTimeout, match="no connection"):
                lis.accept(timeout=0.1)
        finally:
            lis.close()

    def test_connect_retries_then_reports_attempt_count(self, tmp_path):
        backoff = Backoff(base=0.01, ceiling=0.02, total=0.2)
        with pytest.raises(TransportTimeout, match="attempts"):
            connect(f"uds:{tmp_path}/nobody-home", timeout=0.2, backoff=backoff)

    def test_connect_wins_a_race_with_late_bind(self, tmp_path):
        """Dialling before the peer binds must succeed within the backoff
        budget — the all-dial-then-accept bring-up depends on it."""
        path = f"{tmp_path}/late"
        holder = {}

        def late_bind():
            time.sleep(0.15)
            holder["lis"] = Listener(f"uds:{path}")

        t = threading.Thread(target=late_bind)
        t.start()
        try:
            dial = connect(f"uds:{path}", timeout=5.0)
            t.join()
            serve = holder["lis"].accept(timeout=5.0)
            dial.send_obj("made it", timeout=5.0)
            assert serve.recv_obj(timeout=5.0) == "made it"
            dial.close(); serve.close()
        finally:
            t.join()
            if "lis" in holder:
                holder["lis"].close()

    def test_bad_address_scheme_rejected(self):
        with pytest.raises(ValueError):
            Listener("carrier-pigeon:coop:7")


class TestLaneFraming:
    """Coarsened done reports: with fused wave programs one framed done
    message per step carries the worker's whole per-block lane breakdown
    (``pack_lanes``), and the driver rebuilds it with ``unpack_lanes`` —
    same typed-failure contract as every other decode path."""

    def test_done_frame_carries_block_lanes(self, pair):
        ta, tb = pair
        lanes = pack_lanes([(4, 0.5, 0.0, 0.125), (1, 0.25, 0.0625, 0.0)])
        done = ("done", (2, 7, "ok", 0.75, 0.125, 0.0625, (None, None, [], lanes)))
        ta.send_obj(done, timeout=5.0)
        tag, (w, seq, kind, busy, xfer, stall, payload) = tb.recv_obj(timeout=5.0)
        assert (tag, w, seq, kind) == ("done", 2, 7, "ok")
        assert unpack_lanes(payload[3]) == [
            (4, 0.5, 0.0, 0.125),
            (1, 0.25, 0.0625, 0.0),
        ]

    def test_pack_normalises_numpy_scalars(self):
        lanes = pack_lanes([(np.int64(3), np.float64(0.5), 0.0, np.float32(0.0))])
        assert lanes == ((3, 0.5, 0.0, 0.0),)
        assert all(
            type(v) in (int, float) for lane in lanes for v in lane
        ), "packed lanes must pickle as plain builtins"

    def test_unpack_rejects_malformed_lanes(self):
        for bad in (
            [(1, 0.5)],            # wrong arity
            [("x", 0.0, 0.0, 0.0)],  # non-numeric field
            [None],                # not a record at all
            3,                     # not iterable
        ):
            with pytest.raises(TransportError, match="lanes"):
                unpack_lanes(bad)

    def test_unpack_rejects_negative_fields(self):
        with pytest.raises(TransportError, match="negative"):
            unpack_lanes([(1, -0.5, 0.0, 0.0)])
        with pytest.raises(TransportError, match="negative"):
            unpack_lanes([(-1, 0.0, 0.0, 0.0)])

    def test_empty_lanes_roundtrip(self):
        assert pack_lanes([]) == ()
        assert unpack_lanes(()) == []
