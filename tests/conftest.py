"""Shared fixtures: small CKKS contexts and backends are expensive to
build, so session-scoped fixtures keep the suite fast."""

import os
import signal

import numpy as np
import pytest

from repro.backend import SimBackend, ToyBackend
from repro.ckks.context import CkksContext
from repro.ckks.params import paper_parameters, toy_parameters
from repro.obs import Tracer, set_tracer


@pytest.fixture(scope="session", autouse=True)
def _ambient_tracer():
    """The CI ``tracing: on`` leg (REPRO_TRACE=on) runs the whole suite
    with a process-wide Tracer installed, so every bit-exactness assert
    doubles as a tracing-must-not-perturb-results probe.  Spans are
    never drained here — max_roots bounds the memory, and dropping
    excess roots is itself part of the exercised surface."""
    if os.environ.get("REPRO_TRACE", "").lower() not in ("on", "1", "true"):
        yield None
        return
    tracer = Tracer(max_roots=1000)
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(None)


@pytest.fixture()
def fork_deadline():
    """SIGALRM guard for every ``mode="process"`` test: a parent wedged
    on a fork worker fails here with a traceback after 120 s instead of
    eating the CI job's 30 minutes."""

    def expired(signum, frame):
        raise TimeoutError("process-mode test exceeded 120 s (fork deadlock?)")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def toy_params():
    return toy_parameters(ring_degree=512, max_level=6, scale_bits=21, boot_levels=2)


@pytest.fixture(scope="session")
def ckks(toy_params):
    return CkksContext(toy_params, seed=1234)


@pytest.fixture(scope="session")
def toy_backend(toy_params):
    return ToyBackend(toy_params, seed=99)


@pytest.fixture(scope="session")
def sim_params():
    return paper_parameters()


@pytest.fixture()
def sim_backend(sim_params):
    return SimBackend(sim_params, seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
