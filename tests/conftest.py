"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import asyncio

import pytest

from repro.hardware import MeasurementContext, get_machine


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden topology fixtures under "
             "tests/fixtures/golden/ instead of comparing against them",
    )


@pytest.fixture(scope="session")
def ivy():
    return get_machine("ivy")


@pytest.fixture(scope="session")
def opteron():
    return get_machine("opteron")


@pytest.fixture(scope="session")
def sparc():
    return get_machine("sparc")


@pytest.fixture(scope="session")
def testbox():
    return get_machine("testbox")


@pytest.fixture()
def testbox_probe(testbox):
    return MeasurementContext(testbox, seed=11)


class _TimeoutTimers:
    """Counts the ``asyncio.timeout`` timers armed on ``loop`` while
    open; ``count`` holds the tally."""

    def __init__(self, loop):
        self.loop = loop
        self.count = 0

    def __enter__(self):
        real = self.loop.call_at

        def call_at(when, callback, *args, **kwargs):
            if isinstance(getattr(callback, "__self__", None),
                          asyncio.Timeout):
                self.count += 1
            return real(when, callback, *args, **kwargs)

        self.loop.call_at = call_at
        return self

    def __exit__(self, *exc):
        del self.loop.call_at


@pytest.fixture()
def timeout_timers():
    """``with timeout_timers(loop) as timers:`` counts the timeouts
    armed on a server's event loop in ``timers.count``."""
    return _TimeoutTimers
