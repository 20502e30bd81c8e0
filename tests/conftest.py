"""Shared fixtures.

Seeding policy
--------------
Every test that draws randomness must route it through the canonical ``rng``
fixture (or a stream spawned from it, like ``rng2``) — never through the
legacy ``numpy.random`` global state or ad-hoc module-level generators.
Each test gets a *fresh* generator, so no test can perturb another's stream
(cross-test seed bleed), and the ``_isolate_global_rng`` autouse fixture
restores ``numpy.random``'s global state after every test so even code that
does touch the legacy API cannot leak between tests.

Explicit model-init seeds inside tests (``np.random.default_rng(7)``) are
fine: they are self-contained, not shared state.

Leaks
-----
The runtime suites (``test_runtime_*``, ``test_elastic_recovery``,
``test_wave_fusion``, ``test_granularity``) run under the autouse
``_no_runtime_leaks`` fixture: after every test — including the ones that
wedge a pool or kill a worker — no child process may be alive, and no new
``/dev/shm/pm*`` segment, named semaphore (``/dev/shm/sem.mp-*``) or
``pmnet-*`` temp directory may exist.  A leak it
exposes is a bug in a pool's ``close()``, not something to allow-list.

Timeouts
--------
``@pytest.mark.timeout(seconds)`` is honored even without the
``pytest-timeout`` plugin: when the plugin is absent, a SIGALRM-based
fallback aborts the test with ``Failed`` instead of letting a deadlocked
queue hang CI forever.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import signal
import tempfile
import threading

import numpy as np
import pytest

from helpers import make_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """The canonical per-test random stream (seed 0, PCG64)."""
    return make_rng(0)


@pytest.fixture
def rng2(rng) -> np.random.Generator:
    """A second, independent stream derived from the canonical fixture
    (used e.g. to pick which entries a gradcheck samples)."""
    return rng.spawn(1)[0]


@pytest.fixture(autouse=True)
def _isolate_global_rng():
    """Snapshot/restore ``numpy.random``'s legacy global state around every
    test, so nothing can bleed seeds across tests through the global RNG."""
    state = np.random.get_state()
    yield
    np.random.set_state(state)


_LEAK_CHECKED_MODULES = (
    "test_runtime_", "test_elastic_recovery", "test_wave_fusion", "test_granularity",
)


def _runtime_residue() -> set[str]:
    # pm*: rings, mirror, mailbox.  sem.mp-*: a doorbell semaphore made under
    # a spawn context keeps its name until the driver drops the handle.
    shm = glob.glob("/dev/shm/pm*") + glob.glob("/dev/shm/sem.mp-*")
    return set(shm) | set(glob.glob(os.path.join(tempfile.gettempdir(), "pmnet-*")))


@pytest.fixture(autouse=True)
def _no_runtime_leaks(request):
    """After each runtime-suite test: no worker process alive, no new
    shared-memory segment or semaphore, no new socket directory (see module
    docstring)."""
    if not request.module.__name__.startswith(_LEAK_CHECKED_MODULES):
        yield
        return
    before = _runtime_residue()
    yield
    alive = multiprocessing.active_children()  # also reaps the exited ones
    if alive or _runtime_residue() - before:
        gc.collect()  # a runtime the test never closed releases in __del__
        alive = multiprocessing.active_children()
    leaked = sorted(_runtime_residue() - before)
    for proc in alive:  # leave nothing behind for the next test either way
        proc.kill()
        proc.join(5.0)
    assert not alive, f"worker processes outlived the test: {[p.name for p in alive]}"
    assert not leaked, f"runtime left segments/directories behind: {leaked}"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than this "
        "(enforced via SIGALRM when pytest-timeout is not installed)",
    )
    config.addinivalue_line(
        "markers",
        "overlap: overlapped-optimizer-boundary suites (two steps in flight"
        " per pool); CI runs them as a dedicated lane with a tightened"
        " timeout so a version-gating bug surfaces as a timeout, not a hang",
    )
    config.addinivalue_line(
        "markers",
        "hybrid: hybrid data × pipeline parallelism suites (replica groups"
        " sharing one version clock); CI runs them as a dedicated lane with"
        " a tightened timeout so a replica-lockstep bug surfaces as a"
        " timeout, not a hang",
    )
    config.addinivalue_line(
        "markers",
        "net: socket-transport suites (wire framing, the socket runtime's"
        " differential grid, and fault injection across all backends); CI"
        " runs them as a dedicated lane with a tightened timeout so a lost"
        " frame or a broken failure path surfaces as a timeout, not a hang",
    )
    config.addinivalue_line(
        "markers",
        "chaos: seeded chaos soaks (random kills/drops/delays against the"
        " elastic-recovery stack); CI runs them as a dedicated lane with a"
        " tight timeout and uploads the per-seed fault logs from"
        " $CHAOS_LOG_DIR as artifacts when the lane fails",
    )


@pytest.fixture(autouse=True)
def _enforce_timeout_marker(request):
    """Fallback enforcement of ``@pytest.mark.timeout`` without the plugin."""
    marker = request.node.get_closest_marker("timeout")
    if (
        marker is None
        or not marker.args
        or request.config.pluginmanager.hasplugin("timeout")
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    seconds = float(marker.args[0])

    def _alarm(signum, frame):
        raise pytest.fail.Exception(f"test exceeded timeout of {seconds:g}s")

    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
