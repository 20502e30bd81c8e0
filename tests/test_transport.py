"""Unit tests for the shared-memory transport primitives.

These run the rings in-process (writer/reader endpoints over the same
segments, sometimes on a helper thread) — the cross-process behaviour is
exercised end-to-end by ``tests/test_runtime_process.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.pipeline.transport import (
    RingChannels,
    SharedGradMailbox,
    ShmRing,
    TransportError,
    TransportTimeout,
    local_doorbells,
    stage_block_layout,
)
from repro.pipeline.weight_store import SharedWeightMirror


def unique(name):
    """Per-run shared-memory name: a segment leaked by a killed run (or a
    concurrent session) must not collide with this one."""
    return f"{name}-{os.urandom(4).hex()}"


def make_ring(name, slots=8, slot_bytes=128):
    name = unique(name)
    owner = ShmRing(name, slots=slots, slot_bytes=slot_bytes, create=True)
    w = ShmRing(name, slots=slots, role="send")
    r = ShmRing(name, slots=slots, role="recv")
    return owner, w, r


class TestShmRing:
    def test_roundtrip_preserves_value_shape_dtype(self, rng):
        owner, w, r = make_ring("tring-a")
        try:
            for dtype in (np.float64, np.int64, np.int32, np.bool_):
                arr = (rng.normal(size=(3, 4)) * 10).astype(dtype)
                w.send(arr, step=1, timeout=2.0)
                tag, out = r.recv(2.0)
                assert tag == 1
                assert out.dtype == arr.dtype
                np.testing.assert_array_equal(out, arr)
        finally:
            w.close(); r.close(); owner.unlink()

    def test_layout_preserved_for_transposed_arrays(self, rng):
        """Bit-for-bit equivalence depends on payloads keeping their memory
        layout: BLAS kernels downstream accumulate in a different order for
        transposed inputs (this is how BatchNorm's NCHW intermediates cross
        stage boundaries)."""
        owner, w, r = make_ring("tring-b", slot_bytes=8192)
        try:
            base = rng.normal(size=(4, 6, 5))
            for arr in (base, base.transpose(1, 0, 2), np.asfortranarray(base[0])):
                w.send(arr, step=1, timeout=2.0)
                _, out = r.recv(2.0)
                np.testing.assert_array_equal(out, arr)
                assert out.strides == arr.strides, "memory layout must survive"
            # strided view with gaps: values survive via the C-copy fallback
            view = base[:, ::2, :]
            w.send(view, step=1, timeout=2.0)
            _, out = r.recv(2.0)
            np.testing.assert_array_equal(out, view)
        finally:
            w.close(); r.close(); owner.unlink()

    def test_capacity_grows_for_large_payloads(self, rng):
        owner, w, r = make_ring("tring-c", slot_bytes=64)
        try:
            small = rng.normal(size=(4,))
            big = rng.normal(size=(300,))  # 2400 bytes >> 64
            w.send(small, step=1, timeout=2.0)
            _, out = r.recv(2.0)
            np.testing.assert_array_equal(out, small)
            w.send(big, step=1, timeout=2.0)
            _, out = r.recv(2.0)
            np.testing.assert_array_equal(out, big)
            assert w.slot_bytes >= big.nbytes
        finally:
            w.close(); r.close(); owner.unlink()

    def test_recv_timeout_raises(self):
        owner, w, r = make_ring("tring-d")
        try:
            with pytest.raises(TransportTimeout):
                r.recv(0.05)
        finally:
            w.close(); r.close(); owner.unlink()

    def test_wraparound_under_concurrency(self, rng):
        """Many messages through few slots, with interleaved growth."""
        owner, w, r = make_ring("tring-e", slots=4, slot_bytes=64)
        try:
            def writer():
                g = np.random.default_rng(7)
                for m in range(100):
                    w.send(g.normal(size=(1 + m % 37,)), step=2, timeout=5.0)

            th = threading.Thread(target=writer)
            th.start()
            g = np.random.default_rng(7)
            for m in range(100):
                tag, out = r.recv(5.0)
                assert tag == 2
                np.testing.assert_array_equal(out, g.normal(size=(1 + m % 37,)))
            th.join()
        finally:
            w.close(); r.close(); owner.unlink()

    def test_fortran_order_survives_unit_dims_and_stride_ties(self, rng):
        """Regression for ``_layout_perm``: axes of size <= 1 carry
        arbitrary strides (relaxed stride checking), so ranking axes by
        raw stride could let a dummy axis scramble the order of the real
        dimensions.  F-order payloads with unit dims must round-trip with
        their layout intact."""
        owner, w, r = make_ring("tring-f", slot_bytes=8192)
        try:
            f2 = np.asfortranarray(rng.normal(size=(4, 6)))
            w.send(f2, step=1, timeout=2.0)
            _, out = r.recv(2.0)
            np.testing.assert_array_equal(out, f2)
            assert out.strides == f2.strides, "F layout must survive"
            # unit leading dim: its stride is meaningless, the real axes'
            # F order must still be reproduced
            f3 = np.asfortranarray(rng.normal(size=(1, 6, 5)))
            w.send(f3, step=1, timeout=2.0)
            _, out = r.recv(2.0)
            np.testing.assert_array_equal(out, f3)
            assert out.flags.f_contiguous
            # dummy axis with a nonsense stride (as reshaped views can
            # carry): data is contiguous, values and real-axis order survive
            base = np.ascontiguousarray(rng.normal(size=(3, 4)))
            weird = np.lib.stride_tricks.as_strided(
                base, shape=(3, 1, 4), strides=(32, 999, 8)
            )
            w.send(weird, step=1, timeout=2.0)
            _, out = r.recv(2.0)
            np.testing.assert_array_equal(out, weird)
            np.testing.assert_array_equal(out.reshape(3, 4), base)
            # all-unit-dims corner: any permutation is valid, none may crash
            one = np.asfortranarray(rng.normal(size=(1, 1)))
            w.send(one, step=1, timeout=2.0)
            _, out = r.recv(2.0)
            np.testing.assert_array_equal(out, one)
        finally:
            w.close(); r.close(); owner.unlink()

    def test_reserve_commit_publishes_without_copy(self, rng):
        """The in-ring compute path: a producer reserves the next slot,
        fills it, and send() publishes it by identity — the consumer sees
        exactly the reserved bytes."""
        owner, w, r = make_ring("tring-rs", slot_bytes=8192)
        try:
            buf = w.reserve((3, 4), np.float64, step=1, timeout=2.0)
            assert buf is not None and buf.shape == (3, 4)
            buf[...] = rng.normal(size=(3, 4))
            expect = buf.copy()
            assert w.commit_if_reserved(buf)
            tag, out = r.recv(2.0)
            assert tag == 1
            np.testing.assert_array_equal(out, expect)
            # a non-reserved payload is NOT published by commit; send()
            # falls back to the copying path after cancelling
            other = rng.normal(size=(3, 4))
            assert not w.commit_if_reserved(other)
            w.cancel_reserved()
            w.send(other, step=2, timeout=2.0)
            tag, out = r.recv(2.0)
            assert tag == 2
            np.testing.assert_array_equal(out, other)
            # unsupported dtypes decline the reservation instead of failing
            assert w.reserve((2,), np.complex128, step=3, timeout=2.0) is None
        finally:
            w.close(); r.close(); owner.unlink()

    def test_recv_view_pins_slot_until_release(self, rng):
        """Zero-copy receive: the consumer gets a read-only view into the
        ring and the slot stays unacked (producer blocks on reuse) until
        the view's token is released."""
        owner, w, r = make_ring("tring-pin", slots=2, slot_bytes=8192)
        try:
            first = rng.normal(size=(4, 3))
            w.send(first, step=1, timeout=2.0)
            tag, view, token = r.recv_msg_view(2.0)
            assert tag == 1 and token is not None
            assert not view.flags.writeable
            np.testing.assert_array_equal(view, first)
            # both slots filled, none acked: the producer must now block
            w.send(rng.normal(size=(4, 3)), step=1, timeout=2.0)
            with pytest.raises(TransportTimeout):
                w.send(rng.normal(size=(4, 3)), step=1, timeout=0.2)
            r.release(token)
            _, _, t2 = r.recv_msg_view(2.0)
            r.release(t2)
            w.send(first * 2, step=1, timeout=2.0)  # slot free again
            _, out, t3 = r.recv_msg_view(2.0)
            np.testing.assert_array_equal(out, first * 2)
            r.release(t3)
        finally:
            w.close(); r.close(); owner.unlink()

    def test_step_tags_allow_discarding_stale_messages(self, rng):
        """After an aborted step the reader finds old-step residue; the tag
        lets it drop those and resynchronise — the self-healing property the
        process pool relies on."""
        owner, w, r = make_ring("tring-f")
        try:
            w.send(np.zeros(3), step=1, timeout=2.0)  # stale: never consumed in step 1
            w.send(np.ones(3), step=2, timeout=2.0)
            tag, _ = r.recv(2.0)
            assert tag == 1
            tag, out = r.recv(2.0)
            assert tag == 2
            np.testing.assert_array_equal(out, np.ones(3))
        finally:
            w.close(); r.close(); owner.unlink()


def on_thread(fn):
    """Run ``fn`` on a helper thread; ``result()`` joins and returns
    ``(fn's value, CPU seconds that thread burned, wall seconds)``."""
    out = {}

    def body():
        wall, cpu = time.perf_counter(), time.thread_time()
        out["value"] = fn()
        out["cpu"] = time.thread_time() - cpu
        out["wall"] = time.perf_counter() - wall

    th = threading.Thread(target=body)
    th.start()

    def result():
        th.join(10.0)
        assert not th.is_alive(), "helper thread is still blocked"
        return out["value"], out["cpu"], out["wall"]

    return result


def _relay(name_in, name_out, bells_in, bells_out, slots, count):
    """Child process: forward ``count`` messages from one ring to the next,
    half of them through the pinned-view path."""
    src = ShmRing(name_in, slots=slots, role="recv", bells=bells_in)
    dst = ShmRing(name_out, slots=slots, role="send", bells=bells_out)
    try:
        for m in range(count):
            if m % 2:
                tag, payload = src.recv_msg(20.0)
                dst.send_msg(payload, tag, 20.0)
            else:
                tag, view, token = src.recv_msg_view(20.0)
                dst.send_msg(view, tag, 20.0)
                src.release(token)
    finally:
        src.close(); dst.close()


class TestDoorbell:
    """The ring's blocking hand-off: the reader's bell holds exactly one
    token per message published and not yet taken, the writer's at most
    ``slots`` unconsumed acks, and a parked endpoint burns no CPU."""

    def test_tokens_equal_unreceived_messages(self, rng):
        slots = 4
        owner, w, r = make_ring("tbell-a", slots=slots, slot_bytes=8192)
        bell, ack_bell = owner.bells
        sent = received = 0

        def check():
            assert bell.get_value() == sent - received
            assert ack_bell.get_value() <= slots

        try:
            for round_ in range(3 * slots):  # wraps the ring several times
                for _ in range(1 + round_ % slots):
                    w.send(rng.normal(size=(5,)), step=1, timeout=2.0)
                    sent += 1
                    check()
                while received < sent - round_ % 2:  # leave one behind on odd rounds
                    r.recv(2.0)
                    received += 1
                    check()
            while received < sent:
                r.recv(2.0)
                received += 1
            # a reserve/commit publish rings once, at commit
            view = w.reserve((3,), np.float64, step=1, timeout=2.0)
            check()
            view[...] = 1.0
            assert w.commit_if_reserved(view)
            sent += 1
            check()
            # a pinned view took its token at receive, not at release
            _, _, token = r.recv_msg_view(2.0)
            received += 1
            check()
            r.release(token)
            # a tuple payload falls back to the copying path inside
            # recv_msg_view without taking a second token
            w.send_msg((np.ones(3), None, np.arange(4)), step=1, timeout=2.0)
            w.send(np.zeros(2), step=1, timeout=2.0)
            sent += 2
            _, payload, token = r.recv_msg_view(2.0)
            received += 1
            assert token is None and payload[1] is None
            check()
            r.recv(2.0)
            received += 1
            check()
            assert bell.get_value() == 0
        finally:
            w.close(); r.close(); owner.unlink()

    def test_stale_step_residue_takes_one_token_per_message(self, rng):
        """N messages an aborted step left behind are discarded by tag, one
        token each, and the live message behind them is delivered."""
        n = 3
        owner, w, r = make_ring("tbell-b", slots=2 * n, slot_bytes=8192)
        try:
            chans = RingChannels({("act", 0): r}, timeout=2.0)
            for _ in range(n):
                w.send(rng.normal(size=(4,)), step=1, timeout=2.0)
            live = rng.normal(size=(4,))
            w.send(live, step=2, timeout=2.0)
            assert owner.bells[0].get_value() == n + 1
            chans.step = 2
            np.testing.assert_array_equal(chans.recv("act", 0), live)
            assert owner.bells[0].get_value() == 0
            chans.release_all()
            # every slot was acked: the writer can lap the ring again
            for _ in range(2 * n):
                w.send(live, step=2, timeout=0.5)
        finally:
            w.close(); r.close(); owner.unlink()

    def test_timeout_is_typed_worded_and_not_doubled(self):
        owner, w, r = make_ring("tbell-c")
        try:
            for recv in (r.recv_msg, r.recv_msg_view):
                t0 = time.perf_counter()
                with pytest.raises(TransportTimeout, match="message 0 never arrived"):
                    recv(0.3)
                assert 0.3 <= time.perf_counter() - t0 < 0.5
            chans = RingChannels({("act", 0): r}, timeout=0.3)
            t0 = time.perf_counter()
            with pytest.raises(
                TransportTimeout,
                match=r"waited >0.3s for a act payload on edge 0 that never arrived",
            ):
                chans.recv("act", 0)
            assert 0.3 <= time.perf_counter() - t0 < 0.5
        finally:
            w.close(); r.close(); owner.unlink()

    def test_blocked_reader_burns_no_cpu(self, rng):
        owner, w, r = make_ring("tbell-d")
        try:
            result = on_thread(lambda: r.recv(5.0))
            time.sleep(0.3)
            payload = rng.normal(size=(6,))
            w.send(payload, step=3, timeout=2.0)
            (tag, out), cpu, wall = result()
            assert tag == 3
            np.testing.assert_array_equal(out, payload)
            assert wall >= 0.25
            assert cpu < 0.005, f"parked reader used {cpu * 1e3:.1f} ms of CPU"
        finally:
            w.close(); r.close(); owner.unlink()

    def test_blocked_writer_parks_until_the_ack(self, rng):
        owner, w, r = make_ring("tbell-e", slots=2, slot_bytes=8192)
        try:
            for _ in range(2):
                w.send(rng.normal(size=(4,)), step=1, timeout=2.0)
            last = rng.normal(size=(4,))
            result = on_thread(lambda: w.send(last, step=1, timeout=5.0))
            time.sleep(0.3)
            r.recv(2.0)  # acks slot 0: the parked writer wakes and publishes
            _, cpu, wall = result()
            assert wall >= 0.25
            assert cpu < 0.005, f"parked writer used {cpu * 1e3:.1f} ms of CPU"
            r.recv(2.0)
            np.testing.assert_array_equal(r.recv(2.0)[1], last)
        finally:
            w.close(); r.close(); owner.unlink()

    @pytest.mark.timeout(60)
    def test_relay_chain_of_processes_loses_and_invents_nothing(self, rng):
        """More processes than cores, two-slot rings (every hop parks the
        writer on its ack bell and the reader on its doorbell all the
        time): every message arrives once, in order, intact, and both
        bells of every ring end where the token invariants say."""
        ctx = multiprocessing.get_context("fork")
        slots, count, hops = 2, 400, 4
        rings = [
            ShmRing(unique(f"tbell-r{h}"), slots=slots, slot_bytes=256, create=True, ctx=ctx)
            for h in range(hops)
        ]
        procs = [
            ctx.Process(
                target=_relay, daemon=True,
                args=(a.name, b.name, a.bells, b.bells, slots, count),
            )
            for a, b in zip(rings, rings[1:])
        ]
        head = ShmRing(rings[0].name, slots=slots, role="send")
        tail = ShmRing(rings[-1].name, slots=slots, role="recv")
        try:
            for p in procs:
                p.start()
            payloads = [rng.normal(size=(1 + m % 7,)) for m in range(count)]

            def feed():
                for m, payload in enumerate(payloads):
                    head.send(payload, step=m, timeout=20.0)

            feeder = threading.Thread(target=feed)
            feeder.start()
            for m, payload in enumerate(payloads):
                tag, out = tail.recv(20.0)
                assert tag == m
                np.testing.assert_array_equal(out, payload)
            feeder.join(20.0)
            assert not feeder.is_alive()
            for p in procs:
                p.join(20.0)
                assert p.exitcode == 0
            for ring in rings:
                bell, ack_bell = ring.bells
                assert bell.get_value() == 0  # everything published was taken
                # the writer consumed one ack per slot it reused
                assert ack_bell.get_value() == slots
        finally:
            for p in procs:
                if p.is_alive():
                    p.kill()
                    p.join(5.0)
            head.close(); tail.close()
            for ring in rings:
                ring.unlink()

    def test_attach_without_a_doorbell_is_refused(self, monkeypatch):
        """There is no polling fallback: an endpoint that cannot reach the
        ring's semaphores (a foreign process handed no ``bells``) fails at
        attach, and works once they are passed."""
        owner, w, r = make_ring("tbell-f")
        try:
            monkeypatch.delitem(local_doorbells, owner.name)
            with pytest.raises(TransportError, match="no doorbell"):
                ShmRing(owner.name, slots=owner.slots, role="recv")
            ShmRing(owner.name, slots=owner.slots, role="recv", bells=owner.bells).close()
        finally:
            w.close(); r.close(); owner.unlink()


class TestStageBlocks:
    def test_layout_offsets_are_aligned_and_disjoint(self):
        shapes = [[(3, 2), (2,)], [(4,)], [(5, 1), (1,)]]
        offsets, total = stage_block_layout(shapes)
        flat = sorted(
            (off, int(np.prod(sh)) * 8)
            for row, srow in zip(offsets, shapes)
            for off, sh in zip(row, srow)
        )
        assert all(off % 8 == 0 for off, _ in flat)
        end = 0
        for off, size in flat:
            assert off >= end
            end = off + size
        assert total == end

    def test_grad_mailbox_roundtrip(self, rng):
        shapes = [[(3, 2), (2,)], [(4,)]]
        name = unique("tmb-a")
        owner = SharedGradMailbox(name, shapes, create=True)
        peer = SharedGradMailbox(name, shapes)
        try:
            g = rng.normal(size=(3, 2))
            peer.write(0, 0, g, seq=1)
            np.testing.assert_array_equal(owner.read(0, 0, seq=1), g)
            # The parity double-buffer keeps two steps' blocks disjoint:
            # writing the next step must not disturb the previous one.
            g2 = rng.normal(size=(3, 2))
            peer.write(0, 0, g2, seq=2)
            np.testing.assert_array_equal(owner.read(0, 0, seq=2), g2)
            np.testing.assert_array_equal(owner.read(0, 0, seq=1), g)
        finally:
            peer.close(); owner.unlink()


class TestSharedWeightMirror:
    def test_publish_and_window_validation(self, rng):
        shapes = [[(3, 2)], [(2,)]]
        name = unique("tmir-a")
        owner = SharedWeightMirror(name, shapes, history=3, with_velocity=False, create=True)
        reader = SharedWeightMirror(name, shapes, history=3, with_velocity=False, readonly=True)
        try:
            versions = {}
            for v in range(5):
                arrays = [[rng.normal(size=(3, 2))], [rng.normal(size=(2,))]]
                versions[v] = arrays
                owner.publish_version(v, arrays)
                assert reader.latest_version == v
            # resident window is the last `history` versions
            for v in (2, 3, 4):
                np.testing.assert_array_equal(reader.weights(0, v)[0], versions[v][0][0])
            with pytest.raises(KeyError):
                reader.weights(0, 1)  # evicted
            with pytest.raises(KeyError):
                reader.weights(0, 5)  # not yet published
        finally:
            reader.close(); owner.unlink()

    def test_reader_views_are_readonly(self, rng):
        shapes = [[(2, 2)]]
        name = unique("tmir-b")
        owner = SharedWeightMirror(name, shapes, history=2, with_velocity=True, create=True)
        reader = SharedWeightMirror(name, shapes, history=2, with_velocity=True, readonly=True)
        try:
            owner.publish_version(0, [[np.eye(2)]])
            owner.publish_velocity([[np.ones((2, 2))]])
            view = reader.weights(0, 0)[0]
            with pytest.raises((ValueError, RuntimeError)):
                view[0, 0] = 99.0
            np.testing.assert_array_equal(reader.velocity(0)[0], np.ones((2, 2)))
        finally:
            reader.close(); owner.unlink()

    def test_velocity_flag_mismatch_rejected(self):
        shapes = [[(2,)]]
        name = unique("tmir-c")
        owner = SharedWeightMirror(name, shapes, history=2, with_velocity=False, create=True)
        try:
            with pytest.raises(ValueError, match="velocity"):
                SharedWeightMirror(name, shapes, history=2, with_velocity=True)
        finally:
            owner.unlink()

    def test_wait_version_parks_without_cpu_and_times_out(self, rng):
        shapes = [[(2,)]]
        name = unique("tmir-d")
        owner = SharedWeightMirror(name, shapes, history=2, with_velocity=False, create=True)
        reader = SharedWeightMirror(name, shapes, history=2, with_velocity=False, readonly=True)
        try:
            # publishes nobody waited for leave tokens behind; a later wait
            # must look past them and still park for the real one
            for v in range(3):
                owner.publish_version(v, [[np.full(2, float(v))]])
            reader.wait_version(2, timeout=1.0)
            result = on_thread(lambda: reader.wait_version(3, timeout=5.0))
            time.sleep(0.3)
            owner.publish_version(3, [[np.full(2, 3.0)]])
            _, cpu, wall = result()
            assert wall >= 0.25
            assert cpu < 0.005, f"parked gate used {cpu * 1e3:.1f} ms of CPU"
            assert reader.latest_version == 3
            t0 = time.perf_counter()
            with pytest.raises(TransportTimeout, match="version 9 was never published"):
                reader.wait_version(9, timeout=0.3)
            assert 0.3 <= time.perf_counter() - t0 < 0.5
        finally:
            reader.close(); owner.unlink()
