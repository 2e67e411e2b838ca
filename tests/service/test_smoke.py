"""Black-box smoke: a real ``mctopd`` process driven via the CLI path.

Starts ``python -m repro serve`` as a subprocess on a Unix socket,
exercises two catalog machines through the sync client, checks the
acceptance bar (a warm ``infer`` served from cache is >= 10x faster
than the cold one, on the median of five warm round trips) and
verifies the SIGTERM graceful drain exits 0.  The CI service-smoke job
runs exactly this file.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import MctopClient

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def mctopd(tmp_path):
    sock = tmp_path / "mctopd.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--unix", str(sock),
         "--store", str(tmp_path / "store"),
         "--drain-timeout", "3"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # Wait for the socket to accept a ping.
    deadline = time.monotonic() + 20
    while True:
        try:
            with MctopClient(unix_path=sock, timeout=5) as client:
                client.ping()
            break
        except ServiceError:
            if proc.poll() is not None or time.monotonic() > deadline:
                out = proc.communicate(timeout=5)[0]
                raise AssertionError(f"mctopd did not come up:\n{out}")
            time.sleep(0.05)
    yield proc, sock
    if proc.poll() is None:
        proc.kill()
        proc.communicate(timeout=10)


def test_smoke_two_machines_and_graceful_shutdown(mctopd):
    proc, sock = mctopd
    with MctopClient(unix_path=sock, timeout=60) as client:
        for machine in ("testbox", "unisock"):
            t0 = time.perf_counter()
            cold = client.infer(machine, seed=1, repetitions=31)
            cold_s = time.perf_counter() - t0
            assert cold["cached"] is False
            # The median of several warm round trips: one sub-millisecond
            # round trip is at the mercy of a single scheduling hiccup.
            warm_times = []
            for _ in range(5):
                t0 = time.perf_counter()
                warm = client.infer(machine, seed=1, repetitions=31)
                warm_times.append(time.perf_counter() - t0)
                assert warm["cached"] is True
            warm_s = statistics.median(warm_times)
            assert warm_s * 10 <= cold_s, (
                f"{machine}: warm median {warm_s * 1e3:.2f}ms not >=10x "
                f"faster than cold {cold_s * 1e3:.2f}ms"
            )
            placed = client.place(machine, policy="CON_HWC",
                                  seed=1, repetitions=31)
            assert placed["ordering"]
        metrics = client.metrics()
        assert metrics["registry"]["service.inference.runs"]["value"] == 2
        assert metrics["cache"]["memory_entries"] == 2

    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=15)
    assert proc.returncode == 0, f"non-zero exit after SIGTERM:\n{out}"
    assert "mctopd drained, bye" in out
    assert not sock.exists(), "unix socket not cleaned up on drain"
