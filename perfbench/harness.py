"""Shared machinery of the benchmark: server processes, ``/proc``
accounting, NDJSON traffic generators and summary statistics.

Servers are always separate processes started through the public CLI
(``python -m repro.cli serve`` / ``fleet serve``) from the checkout's
``src`` tree, so client and server never share an interpreter and
``/proc`` keeps their CPU apart.  The client side stays within two
threads and two connections: an open loop runs on one connection with a
sender thread (the caller) and a receiver thread.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Sockets, stores, logs and traces of the running benchmark; relative
#: to the checkout root (the working directory of every process), which
#: keeps unix socket paths short however deep the checkout lives.
RUN_ROOT = Path(".perfbench")

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: How long the open loop's receiver waits for the last answers once
#: every frame has been sent.
DRAIN_TIMEOUT_S = 10.0
#: Spans recorded to price one span (``span_cost_us``).
SPAN_PROBES = 2000
#: Iterations of the host-speed probe loop (~50 ms on a fast host).
PROBE_ITERATIONS = 1_000_000


def load_model() -> dict:
    """The traffic model, rates, predictions and recorded digests."""
    return json.loads((BENCH_DIR / "model.json").read_text())


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ------------------------------------------------------------------ /proc
def cpu_times(pid: int) -> tuple[float, float]:
    """(user, system) CPU seconds of a process so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) / _CLK_TCK, int(fields[12]) / _CLK_TCK


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a process so far."""
    return sum(cpu_times(pid))


def host_steal_s() -> float:
    """CPU seconds the hypervisor has stolen from this host's CPUs so
    far (the ``steal`` column of ``/proc/stat``'s ``cpu`` line)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _CLK_TCK


def probe_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes now, the fastest of three.
    Printed beside the results so runs taken in a slow host state can
    be told apart; never used to scale a metric."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ------------------------------------------------------------ CPU pinning
#: The CPUs this run may use.  With two or more, the run pins its
#: processes: the daemon (or the fleet router, or the study worker) to
#: the first, everything else -- members and this client -- to the last.
#: Left alone, the scheduler's wake-up placement often puts a server
#: and its client on one CPU, and the pair then takes turns instead of
#: overlapping (in a prototype, a pipelined 512-query ``place_many``
#: loop read ~200k or ~335k qps from run to run depending on where the
#: two processes landed).
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = CPUS[0], CPUS[-1]


def pin(pid: int, cpu: int) -> None:
    """Pin a process (0: this one) to one CPU, if there is a choice."""
    if len(CPUS) > 1:
        os.sched_setaffinity(pid, {cpu})


# --------------------------------------------------------------- run dirs
def run_dir_path(workload: str) -> Path:
    """This run's private directory (removed when the run ends)."""
    return RUN_ROOT / f"{workload}-{os.getpid()}"


def make_run_dir(workload: str) -> Path:
    path = run_dir_path(workload)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------- connections
class Conn:
    """One blocking NDJSON unix-socket connection (raw bytes + helpers)."""

    def __init__(self, path: str | Path, timeout: float = 60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(str(path))
        except OSError:
            self.sock.close()
            raise
        # A large buffer drains a whole ~60 KB answer per read, so the
        # server is not left blocked on a full socket while the client
        # decodes (which otherwise locks the two into taking turns).
        self.reader = self.sock.makefile("rb", buffering=1 << 20)

    def call(self, verb: str, **params) -> dict:
        """One request; the result document, or ``RuntimeError``."""
        from repro.service.protocol import decode_response, encode_frame

        self.sock.sendall(encode_frame({"verb": verb, "params": params}))
        doc = decode_response(self.reader.readline())
        if not doc.get("ok"):
            raise RuntimeError(f"{verb} failed: {doc.get('error')}")
        return doc["result"]

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Conn":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Server:
    """One server process launched through the public CLI."""

    def __init__(self, name: str, argv: list[str], sock: Path,
                 run_dir: Path, cpu: int = SERVER_CPU):
        self.name = name
        self.sock = sock
        self.cpu = cpu
        #: Seconds from launch to ready, set by whoever brings it up.
        self.setup_s: float | None = None
        self._log = open(run_dir / f"{name}.log", "wb")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=ROOT, env=server_env(), stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        # Before the interpreter is up, so threads it starts inherit it.
        pin(self.proc.pid, cpu)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until a ``ping`` on the socket is answered."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.name} exited with "
                                   f"{self.proc.returncode} before ready")
            try:
                with Conn(self.sock, timeout=5.0) as conn:
                    conn.call("ping")
                return
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"{self.name} not ready after "
                                       f"{timeout}s") from None
                time.sleep(0.005)

    def stop(self) -> None:
        """SIGTERM (the graceful drain), then SIGKILL; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def daemon_argv(sock: Path, store: Path, member_id: str | None = None
                ) -> list[str]:
    """``serve`` with daemon defaults apart from where it listens."""
    argv = ["serve", "--unix", str(sock), "--store", str(store)]
    if member_id is not None:
        argv += ["--member-id", member_id]
    return argv


# ------------------------------------------------------ traffic phases
@dataclass
class Phase:
    """Per-frame outcome of one timed traffic phase."""

    frames: int = 0
    #: Seconds from each frame's (scheduled) send to its decoded
    #: answer; ``math.inf`` for a failed frame, which misses any limit.
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    elapsed: float = 0.0
    late: list[float] = field(default_factory=list)
    response_bytes: int = 0
    #: A sample of raw response lines (for the in-process replay).
    sample: list[bytes] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def record(self, index: int, line: bytes, started: float, check,
               keep: int, tamper=None, on_done=None) -> None:
        from repro.errors import ProtocolError
        from repro.service.protocol import decode_response

        if tamper is not None:
            line = tamper(index, line)
        try:
            doc = decode_response(line)
        except ProtocolError as exc:
            doc, problem = None, f"undecodable answer: {exc}"
        now = time.perf_counter()
        if doc is not None:
            problem = check(index, doc)
        self.frames += 1
        self.response_bytes += len(line)
        if len(self.sample) < keep:
            self.sample.append(line)
        if problem is None:
            self.latencies.append(now - started)
            if on_done is not None:
                on_done(index, started, now, doc)
        else:
            self.fail(problem)

    def fail(self, problem: str, frames: int = 1) -> None:
        self.latencies.extend([math.inf] * frames)
        self.failed += frames
        if len(self.errors) < 5:
            self.errors.append(problem)


def poisson_schedule(seed: str, rate: float, count: int) -> list[float]:
    """Send offsets (seconds) of ``count`` independent callers arriving
    at ``rate`` per second: exponential gaps from a seeded stream, so
    the same seed sends the same frames at the same offsets."""
    rng = random.Random(seed)
    offsets, at = [], 0.0
    for _ in range(count):
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


def open_loop(conn: Conn, frames: list[bytes], schedule: list[float],
              check, keep: int = 0, tamper=None, on_done=None) -> Phase:
    """Send frame k at offset ``schedule[k]`` whether or not answers
    came back; a receiver thread decodes and checks each answer, timed
    from the frame's *scheduled* send.  Frame ``k`` is ``frames[k]``
    (cycling through the pool)."""
    phase = Phase()
    count = len(schedule)
    t0 = time.perf_counter() + 0.02
    received = [0]

    def receive() -> None:
        try:
            for index in range(count):
                line = conn.reader.readline()
                if not line:
                    return
                phase.record(index, line, t0 + schedule[index],
                             check, keep, tamper, on_done)
                received[0] = index + 1
        except OSError:
            return

    receiver = threading.Thread(target=receive, name="perfbench-recv")
    receiver.start()
    try:
        for index in range(count):
            due = t0 + schedule[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            conn.sock.sendall(frames[index % len(frames)])
            phase.late.append(time.perf_counter() - due)
    except OSError as exc:
        phase.errors.append(f"transport: {exc}")
    finally:
        conn.sock.settimeout(DRAIN_TIMEOUT_S)
        receiver.join()
    missing = count - received[0]
    if missing:
        phase.fail("no answer (timeout or transport error)", missing)
        phase.frames = count
    phase.elapsed = time.perf_counter() - t0
    return phase


# ------------------------------------------------------------ statistics
def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def span_cost_us(tracer) -> float:
    """Mean cost of recording one span, in microseconds, measured on a
    fresh tracer of the same kind as ``tracer``."""
    probe = type(tracer)(capacity=SPAN_PROBES)
    start = time.perf_counter()
    for _ in range(SPAN_PROBES):
        with probe.span("client.probe"):
            pass
    return (time.perf_counter() - start) / SPAN_PROBES * 1e6


class Report:
    """The metrics of one run, printed by name with their units."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def note(self, text: str) -> None:
        self.notes.append(text)

    def account(self, phase: Phase) -> None:
        self.attempted += phase.frames
        self.failed += phase.failed
        self.problems.extend(phase.errors)

    def check(self, ok: bool, problem: str) -> None:
        """A one-off oracle: not an operation, but it gates ``correct``."""
        if not ok:
            self.problems.append(problem)
