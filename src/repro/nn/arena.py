"""Per-worker slab arenas: steady-state allocation-free kernels.

Profiling the concurrent runtime (the throughput bench through PR 5)
showed the hot loop dominated not by compute but by allocator traffic:
every wave allocates fresh activation, mask and gradient arrays whose
sizes repeat exactly from step to step, and at the ~200 KB float64 sizes
our standard workloads produce, glibc serves each one with ``mmap`` +
page-fault + ``munmap``.  PipeDream's steady state (and ReaLHF's pipe
engine) win precisely because every in-flight slot computes into
pre-sized buffers; this module gives our kernels the same property
without changing a single computed bit.

:class:`Arena` is a free-list of **slabs** keyed by ``(shape, dtype)``.
Kernels allocate through :func:`empty`, which returns a recycled slab
when a worker arena is current on this thread and falls back to plain
``np.empty`` otherwise — so the sequential simulator (no arena) and any
driver-side evaluation keep their exact allocation behaviour, and the
differential suites compare an arena-free baseline against the arena'd
runtime bit for bit.

Slab lifetime is generational, tied to the pool's step sequence:

* a worker calls :meth:`Arena.begin_program` with the step's ``seq``
  before executing its program; every slab handed out during that
  program belongs to generation ``seq``;
* generation ``g`` is recycled when a program with ``seq >= g + depth``
  begins.  With ``depth=2`` (two steps in flight) a slab allocated in
  step ``s`` survives until the worker *starts* step ``s+2`` — and the
  driver only issues step ``s+2`` after collecting step ``s``, so every
  consumer of the slab (same-step backward caches, cross-worker queue
  hand-offs, recompute snapshots) is provably finished.  Recycling later
  than necessary is always safe; the cost is one extra generation of
  resident slabs.

Under ``REPRO_ARENA_DEBUG=1`` recycled slabs are poison-filled (NaN for
floats) before they re-enter the free list, so any read-after-recycle —
e.g. a recompute path resolving a stale cache — turns into NaN losses
instead of silently wrong numbers.  ``tests/test_arena_safety.py`` runs
the differential grids under this toggle.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_tls = threading.local()


def _env_debug() -> bool:
    return os.environ.get("REPRO_ARENA_DEBUG", "") not in ("", "0")


def _poison(a: np.ndarray) -> None:
    """Make any read of a recycled slab loudly wrong."""
    kind = a.dtype.kind
    if kind == "f":
        a.fill(np.nan)
    elif kind == "c":
        a.fill(complex(np.nan, np.nan))
    elif kind == "b":
        a.fill(True)
    elif kind in ("i", "u"):
        a.fill(np.iinfo(a.dtype).max // 2)


class Arena:
    """Generational ``(shape, dtype)``-keyed slab pool for one worker.

    Not thread-safe: each worker thread/process owns exactly one arena
    and installs it with :func:`set_current` on its own thread.
    """

    def __init__(self, depth: int = 2, debug: bool | None = None):
        if depth < 1:
            raise ValueError(f"arena depth must be >= 1, got {depth}")
        self.depth = depth
        self.debug = _env_debug() if debug is None else bool(debug)
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._live: dict[int, list[np.ndarray]] = {}
        self._gen: int | None = None
        self.slabs = 0          # total slabs ever allocated (growth telemetry)
        self.recycled = 0       # slabs returned to the free list so far

    def begin_program(self, seq: int) -> None:
        """Open generation ``seq`` and recycle every generation old enough
        that no consumer can still reach its slabs (see module docstring)."""
        horizon = seq - self.depth
        for g in [g for g in self._live if g <= horizon]:
            for slab in self._live.pop(g):
                if self.debug:
                    _poison(slab)
                self._free.setdefault((slab.shape, slab.dtype), []).append(slab)
                self.recycled += 1
        self._gen = seq
        self._live.setdefault(seq, [])

    def empty(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """An uninitialised slab of ``(shape, dtype)`` from the free list,
        growing the pool on a miss.  Must be inside :meth:`begin_program`."""
        if self._gen is None:
            raise RuntimeError("Arena.empty called outside begin_program")
        key = (shape, np.dtype(dtype))
        pool = self._free.get(key)
        if pool:
            slab = pool.pop()
        else:
            slab = np.empty(shape, dtype)
            self.slabs += 1
        self._live[self._gen].append(slab)
        return slab

    def resident_bytes(self) -> int:
        """Total bytes pinned by the arena (free + live slabs) — the
        memory-footprint cost of allocation-free steady state."""
        total = 0
        for pool in self._free.values():
            total += sum(a.nbytes for a in pool)
        for slabs in self._live.values():
            total += sum(a.nbytes for a in slabs)
        return total


def set_current(arena: Arena | None) -> None:
    """Install ``arena`` as this thread's allocation target (None clears)."""
    _tls.arena = arena


def current() -> Arena | None:
    return getattr(_tls, "arena", None)


def empty(shape, dtype=np.float64) -> np.ndarray:
    """Allocate through the current thread's arena, or plainly when none is
    installed (simulator / driver-side evaluation).  The kernels' single
    allocation entry point."""
    arena = getattr(_tls, "arena", None)
    if arena is None:
        return np.empty(shape, dtype)
    return arena.empty(tuple(shape), dtype)
