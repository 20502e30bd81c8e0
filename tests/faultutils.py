"""Fault-injection harness for the concurrent runtimes.

The worker loop exposes one test seam: ``repro.pipeline.worker._channel_hook``
wraps every worker's channel set (thread queues, shared-memory rings,
socket transports) before the worker uses it.  This module provides
the wrapper: a :class:`FaultSpec` of :class:`FaultRule` entries that fire
at exact ``(worker, op, kind, edge, microbatch, step)`` coordinates —
dropping a payload, delaying it, duplicating it with a stale step tag,
severing the socket under it, or killing the worker outright — so every
failure path the driver claims to handle can be triggered deterministically
and asserted on.

With the default ``fork`` start method, process and socket workers inherit
the installed hook (and their own copy of the rules) through the fork, so
the same spec drives all three backends.  Because each forked worker
mutates its *own* rule counters, rules should pin ``worker=`` so exactly
one process fires them; a respawned worker generation forks fresh counters
from the driver's pristine copy, which is why rules should also pin
``step=`` (the driver's global step sequence, 1-based) — a retried
sequence number is never reused, so a pinned rule cannot re-fire after a
respawn.

Usage::

    spec = FaultSpec([FaultRule(op="send", action="drop", worker=1,
                                kind="act", step=2)])
    monkeypatch.setattr(worker, "_channel_hook", spec.wrap)
    # ... build the runtime (fork inherits the hook), run steps ...
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.pipeline.transport import TransportClosed


class FaultInjected(RuntimeError):
    """Raised inside a worker by a ``die`` rule on the thread backend (a
    thread cannot be killed the way a process can); surfaces to the driver
    through the ordinary worker-error path."""


@dataclass
class FaultRule:
    """One injected fault.  ``op`` is the channel operation to intercept
    ("send" or "recv"); ``action`` is what to do when every filter matches:

    ``drop``
        swallow the payload (send) — the peer starves into its channel
        timeout and reports a deadlock.
    ``delay``
        sleep ``delay`` seconds, then perform the operation normally —
        must be absorbed bit-exactly.
    ``dup``
        send twice, the first copy tagged with the *previous* step
        sequence — exercises the stale-tag discard every channel set
        shares.
    ``disconnect``
        close the underlying socket for this channel, then attempt the
        send — raises ``TransportClosed`` in the worker (socket only).
    ``die``
        kill the worker at this exact point: ``os._exit(13)`` for process
        and socket workers, :class:`FaultInjected` for thread workers.

    ``None`` filters match anything.  ``step`` is the driver's global step
    sequence (1-based); ``microbatch`` the wave index the operation happens
    under.  A rule fires at most ``count`` times per process.
    """

    op: str
    action: str
    worker: int | None = None
    kind: str | None = None
    edge: int | None = None
    microbatch: int | None = None
    step: int | None = None
    delay: float = 0.05
    count: int = 1
    fired: int = 0


class FaultSpec:
    """A set of rules plus the ``_channel_hook`` adapter installing them."""

    def __init__(self, rules: list[FaultRule]):
        self.rules = rules

    def wrap(self, chans, w: int):
        return FaultyChannels(chans, w, self.rules)


class FaultyChannels:
    """Channel proxy applying :class:`FaultRule` actions to send/recv.

    ``can_reserve`` is pinned False so ``_execute_program`` always takes
    the copying send path — in-ring reserve/commit would bypass ``send()``
    and with it every interception point.  The proxy otherwise forwards the
    full channel surface to the wrapped object.
    """

    can_reserve = False

    def __init__(self, inner, w: int, rules: list[FaultRule]):
        self._inner = inner
        self._w = w
        self._rules = rules
        self._wave = None

    # -- coordinates -----------------------------------------------------------
    @property
    def step(self):
        return self._inner.step

    @step.setter
    def step(self, value):
        self._inner.step = value

    def _seq(self) -> int:
        return self._inner.step  # the driver's step tag, set per step command

    def _thread_backend(self) -> bool:
        # Thread workers live in the driver (pytest) process itself.
        return multiprocessing.parent_process() is None

    def _fire(self, op: str, kind: str, edge: int) -> FaultRule | None:
        for rule in self._rules:
            if rule.op != op or rule.fired >= rule.count:
                continue
            if rule.worker is not None and rule.worker != self._w:
                continue
            if rule.kind is not None and rule.kind != kind:
                continue
            if rule.edge is not None and rule.edge != edge:
                continue
            if rule.step is not None and rule.step != self._seq():
                continue
            if rule.microbatch is not None and rule.microbatch != self._wave:
                continue
            rule.fired += 1
            return rule
        return None

    def _die(self):
        if self._thread_backend():
            raise FaultInjected(
                f"injected worker death on worker {self._w} at step {self._seq()}"
            )
        os._exit(13)

    # -- intercepted operations ------------------------------------------------
    def send(self, kind: str, edge: int, payload) -> None:
        rule = self._fire("send", kind, edge)
        if rule is None:
            return self._inner.send(kind, edge, payload)
        if rule.action == "drop":
            return None
        if rule.action == "delay":
            time.sleep(rule.delay)
            return self._inner.send(kind, edge, payload)
        if rule.action == "dup":
            # Stale-tagged duplicate: receivers must discard it and deliver
            # only the real copy, keeping the step bit-exact.
            self._inner.step -= 1
            try:
                self._inner.send(kind, edge, payload)
            finally:
                self._inner.step += 1
            return self._inner.send(kind, edge, payload)
        if rule.action == "disconnect":
            if hasattr(self._inner, "disconnect"):
                self._inner.disconnect(kind, edge)
                return self._inner.send(kind, edge, payload)  # raises
            raise TransportClosed(
                f"injected disconnect of ({kind}, {edge}) on worker {self._w}"
            )
        if rule.action == "die":
            self._die()
        raise ValueError(f"unknown fault action {rule.action!r}")

    def recv(self, kind: str, edge: int):
        rule = self._fire("recv", kind, edge)
        if rule is not None:
            if rule.action == "delay":
                time.sleep(rule.delay)
            elif rule.action == "die":
                self._die()
            else:
                raise ValueError(
                    f"fault action {rule.action!r} is not supported on recv"
                )
        return self._inner.recv(kind, edge)

    # -- forwarded surface -----------------------------------------------------
    def reserve(self, kind: str, edge: int, shape, dtype):
        return None  # can_reserve is False; nothing may pin ring slots

    def begin_wave(self, j: int) -> None:
        self._wave = j
        self._inner.begin_wave(j)

    def release_wave(self, j: int) -> None:
        self._inner.release_wave(j)

    def release_all(self) -> None:
        self._inner.release_all()

    def __getattr__(self, name):
        # xfer_seconds, close, disconnect, ... — whatever the wrapped
        # backend's channel set offers.
        return getattr(self._inner, name)
