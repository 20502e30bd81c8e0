"""Compile the per-worker wave schedule into fused command blocks.

The concurrent runtimes all execute the same static per-step schedule: each
worker runs a fixed ``[(op, microbatch), ...]`` program (see
:func:`repro.pipeline.schedule.stage_programs`) whose shape never changes
between minibatches.  Historically the scheduler still paid a per-*wave*
hand-off — the interpreter re-derived the version gate and re-pointed the
stage weights for every single wave even though both are pure functions of
the minibatch index ``t`` with compile-time-constant structure.  PipeDream
(Harlap et al.) and XPipe (Guan et al.) compile such static schedules into
per-worker work queues ahead of time; PipeMare's fixed delay profile makes
the same move exact here.

This module performs that compilation once per (method, sync-flag):

* Every wave's **version gate** is an affine function of the minibatch
  index: ``gate_version(t) = max(0, t - d)`` for a compile-time constant
  delay ``d`` (all delay-profile formulas have the form
  ``max(0, ceil((t·n + c) / n)) = max(0, t + ceil(c / n))``).  The delay is
  recovered by evaluating the resolver at a reference minibatch and
  *verified exhaustively* over ``t = 0 .. horizon`` — a non-affine gate
  raises :class:`WaveCompileError` instead of miscompiling.
* Adjacent same-worker waves are **fused into blocks**: a block boundary is
  forced only where a wave's gate requires a *newer* version than the block
  entry gate (a "rising gate" — gating it at block entry would wait on a
  version the entry gate does not), or where a cross-worker input's
  producing wave is gated newer than the block entry (so the producer may
  not even be admitted when this block starts).  Plain cross-worker data
  edges do **not** break blocks: channel receives block FIFO-style inside
  the wave, so dataflow order is preserved exactly as in the unfused path.
* Within a block, consecutive waves whose weight reads resolve to the same
  store versions skip the redundant ``load_weights`` re-pointing (the
  **load signature** below); gating, arena pinning
  (``begin_wave``/``release_wave``), dropout slots and cache snapshots stay
  per-wave, so trajectories remain bit-for-bit identical to the simulator.

The optimizer boundary never needs an explicit rule: programs are compiled
per step (and per sync flag), so no block can span two minibatches.

:func:`compile_wave_programs` is the entry point; the runtime calls it via
:meth:`repro.pipeline.plan.WeightResolver.wave_programs` so process/socket
workers compile the identical programs from their
:class:`~repro.pipeline.plan.WorkerPlanMirror`.
"""

from __future__ import annotations

from dataclasses import dataclass


class WaveCompileError(RuntimeError):
    """A wave's gate or load version did not match the affine model
    ``max(0, t - d)`` — compilation refuses to guess rather than emit a
    program that could diverge from the per-wave reference path."""


@dataclass(frozen=True)
class WaveInfo:
    """One wave of a worker program, annotated for fusion.

    ``gate_delay`` ``d`` encodes the version gate ``max(0, t - d)``
    (``None`` = ungated: the worker reads no stage weights).  ``load_sig``
    is a hashable signature such that equal signatures on the same worker
    within one step imply bit-identical weight loads; ``None`` means "never
    skip".  ``producer_gate_delay`` is the tightest (smallest) gate delay
    among the cross-worker waves producing this wave's inputs, or ``None``
    when every input is local/external.
    """

    op: str
    j: int
    gate_delay: int | None
    load_sig: tuple | None
    producer_gate_delay: int | None = None


@dataclass(frozen=True)
class WaveBlock:
    """A maximal fusable run of waves: one scheduler command, one done
    report.  ``ops`` is the ``(op, microbatch)`` slice of the worker
    program; ``loads[i]`` is False where wave ``i`` may reuse the weights
    the previous wave in the block already loaded."""

    ops: tuple[tuple[str, int], ...]
    gate_delay: int | None
    loads: tuple[bool, ...]


@dataclass(frozen=True)
class WaveProgram:
    """One worker's step program compiled into fused blocks."""

    blocks: tuple[WaveBlock, ...]
    num_waves: int
    num_forwards: int

    @property
    def num_commands(self) -> int:
        return len(self.blocks)


def _affine_delay(fn, horizon: int, what: str) -> int:
    """Recover ``d`` with ``fn(t) == max(0, t - d)`` for all ``t >= 0``.

    ``d`` is read off at the reference minibatch ``horizon`` (chosen past
    every clamp region of the delay formulas), the unit slope is checked one
    step further, and the closed form is verified exhaustively over
    ``t = 0 .. horizon``.  Any mismatch raises :class:`WaveCompileError`.
    """
    ref = fn(horizon)
    d = horizon - ref
    if fn(horizon + 1) - ref != 1:
        raise WaveCompileError(
            f"{what}: version is not affine in t near the reference "
            f"minibatch (slope != 1 at t={horizon})"
        )
    for t in range(horizon + 1):
        if fn(t) != max(0, t - d):
            raise WaveCompileError(
                f"{what}: version at t={t} is {fn(t)}, affine model "
                f"max(0, t - {d}) predicts {max(0, t - d)}"
            )
    return d


def _load_version(resolver, op: str, stage: int, t: int, j: int, sync: bool) -> int:
    """The store version whose arrays ``load_weights`` re-points stage
    ``stage`` at for this wave, without touching the store.  A T2
    extrapolation on top of a backward or recompute read adds a per-stage
    term that is constant within a step (velocities advance only at the
    boundary), so the base version alone determines the loaded arrays."""
    if op == "F":  # mirrors forward_weights
        if sync:
            return t
        return resolver.profile.fwd_version(stage, t, j)
    if op == "B":
        return resolver.backward_read(stage, t, j, sync)[0]
    return resolver.recompute_read(stage, t, j)[0]


def _load_sig(
    resolver, op: str, stages, j: int, sync: bool, horizon: int
) -> tuple | None:
    """Hashable signature of a wave's weight load: equal signatures on the
    same worker within one step imply every stage resolves to the same
    version (hence the identical array objects) — the condition under which
    the repeated ``load_weights`` is a no-op and may be skipped.  The
    per-stage affine delays are compared rather than versions at one ``t``
    so a clamp coincidence at small ``t`` can never merge genuinely
    different loads (the conservative direction: distinct delays whose
    clamped versions coincide merely cost an extra reload)."""
    try:
        delays = tuple(
            _affine_delay(
                lambda t, s=s: _load_version(resolver, op, s, t, j, sync),
                horizon,
                f"load version (op={op}, stage={s}, j={j})",
            )
            for s in stages
        )
    except WaveCompileError:
        return None
    return (op, delays)


def compile_blocks(infos: list[WaveInfo], fuse: bool = True) -> tuple[WaveBlock, ...]:
    """Group a worker's annotated waves into maximal fused blocks.

    A new block starts at wave ``i`` when fusion is off, at the first wave,
    where the wave's own gate is *newer* than the running block's entry
    gate (smaller delay ⇒ larger required version — the entry gate would
    admit the block before this wave may run), or where a cross-worker
    producer of the wave is gated newer than the entry gate (the producing
    peer might not be admitted yet; on the real linear-chain schedules this
    rule never fires because upstream stages always gate at least as old,
    but it keeps compilation safe for arbitrary inputs).  With fusion off
    every wave becomes its own singleton block — the differential
    reference, byte-identical in behaviour to the historical per-wave
    scheduler loop.
    """
    blocks: list[WaveBlock] = []
    ops: list[tuple[str, int]] = []
    loads: list[bool] = []
    entry_delay: int | None = None
    prev_sig: tuple | None = None

    def flush() -> None:
        nonlocal ops, loads
        if ops:
            blocks.append(WaveBlock(tuple(ops), entry_delay, tuple(loads)))
            ops, loads = [], []

    for info in infos:
        newer_gate = info.gate_delay is not None and (
            entry_delay is None or info.gate_delay < entry_delay
        )
        newer_producer = info.producer_gate_delay is not None and (
            entry_delay is None or info.producer_gate_delay < entry_delay
        )
        if not fuse or not ops or newer_gate or newer_producer:
            flush()
            entry_delay = info.gate_delay
            prev_sig = None
        ops.append((info.op, info.j))
        loads.append(prev_sig is None or info.load_sig is None or info.load_sig != prev_sig)
        prev_sig = info.load_sig
    flush()
    return tuple(blocks)


def compile_wave_programs(
    resolver,
    programs: list[list[tuple[str, int]]],
    read_stages: list[list[int]],
    fwd_peers: list[list[int]],
    bwd_peers: list[list[int]],
    sync: bool,
    fuse: bool = True,
) -> list[WaveProgram]:
    """Compile every worker's ``(op, microbatch)`` program for one sync
    flag into a :class:`WaveProgram`.

    ``read_stages[w]`` lists the stages worker ``w``'s weight loads touch
    (owned plus borrowed tied stages — exactly the gate stages of the
    per-wave path); ``fwd_peers[w]`` / ``bwd_peers[w]`` list the workers
    producing ``w``'s cross-worker forward/backward inputs, used for the
    producer boundary rule.  The resolver may be the driver's
    :class:`~repro.pipeline.plan.StepPlan` or a worker's
    :class:`~repro.pipeline.plan.WorkerPlanMirror` — both expose the same
    store-free version arithmetic, so driver and workers compile identical
    programs.
    """
    horizon = 4 * resolver.num_stages + resolver.num_microbatches + 8
    gate_delays: list[dict[tuple[str, int], int | None]] = []
    for w, program in enumerate(programs):
        delays: dict[tuple[str, int], int | None] = {}
        for op, j in program:
            if not read_stages[w]:
                delays[(op, j)] = None
            else:
                delays[(op, j)] = _affine_delay(
                    lambda t, _op=op, _j=j, _w=w: resolver.wave_gate_version(
                        _op, read_stages[_w], t, _j, sync
                    ),
                    horizon,
                    f"gate version (worker={w}, op={op}, j={j})",
                )
        gate_delays.append(delays)

    compiled: list[WaveProgram] = []
    for w, program in enumerate(programs):
        infos: list[WaveInfo] = []
        for op, j in program:
            peers = bwd_peers[w] if op == "B" else fwd_peers[w]
            producer: int | None = None
            for p in peers:
                pd = gate_delays[p].get((op, j))
                if pd is not None and (producer is None or pd < producer):
                    producer = pd
            infos.append(
                WaveInfo(
                    op=op,
                    j=j,
                    gate_delay=gate_delays[w][(op, j)],
                    load_sig=_load_sig(resolver, op, read_stages[w], j, sync, horizon),
                    producer_gate_delay=producer,
                )
            )
        compiled.append(
            WaveProgram(
                blocks=compile_blocks(infos, fuse),
                num_waves=len(program),
                num_forwards=sum(1 for op, _ in program if op == "F"),
            )
        )
    return compiled
