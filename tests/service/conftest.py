"""Fixtures for the mctopd service tests.

``harness`` is one real daemon from the suite-wide ``daemon_factory``
(``tests/conftest.py``), so every test exercises the genuine asyncio
stack rather than a mock transport.
"""

from __future__ import annotations

import importlib
import threading

import pytest


@pytest.fixture()
def harness(daemon_factory):
    return daemon_factory()


@pytest.fixture()
def held_store_write(monkeypatch):
    """Hold every store write until the test lets it go.

    Yields ``(writing, release)``: ``writing`` is set once a write has
    started, and the write goes on once ``release`` is set (or after
    10 s, so a loop blocked by the write cannot hang the test).
    """
    cache_module = importlib.import_module("repro.service.cache")
    writing, release = threading.Event(), threading.Event()
    real_save = cache_module.save_mctop

    def held_save(mctop, path):
        writing.set()
        release.wait(10)
        return real_save(mctop, path)

    monkeypatch.setattr(cache_module, "save_mctop", held_save)
    yield writing, release
    release.set()


@pytest.fixture()
def held_store_load(monkeypatch):
    """Hold every store load until the test lets it go.

    Yields ``(loading, release, loads)``: ``loading`` is set once a load
    has started, the load goes on once ``release`` is set (or after
    10 s, so a loop blocked by the load cannot hang the test), and
    ``loads`` lists the path of every load.
    """
    cache_module = importlib.import_module("repro.service.cache")
    loading, release = threading.Event(), threading.Event()
    loads: list = []
    real_load = cache_module.load_mctop

    def held_load(path):
        loads.append(path)
        loading.set()
        release.wait(10)
        return real_load(path)

    monkeypatch.setattr(cache_module, "load_mctop", held_load)
    yield loading, release, loads
    release.set()
