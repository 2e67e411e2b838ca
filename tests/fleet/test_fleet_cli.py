"""``mctop fleet ...`` CLI: status/query against a live fleet, the
serve-config builders, and a black-box ``fleet serve`` subprocess."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import _render_fleet, main
from repro.errors import ServiceError
from repro.fleet import RouterConfig, run_fleet
from repro.fleet.serve import _member_configs
from repro.service import MctopClient
from repro.service.top import render_fleet_lines

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFleetStatus:
    def test_status_renders_membership(self, capsys, fleet):
        code, out, _ = run_cli(
            capsys, "fleet", "status",
            "--unix", fleet.router_config.unix_path,
        )
        assert code == 0
        assert "3/3 members in ring" in out
        for member in ("m0", "m1", "m2"):
            assert member in out
        assert "healthy" in out
        assert "replicas per member" in out

    def test_status_json(self, capsys, fleet):
        code, out, _ = run_cli(
            capsys, "fleet", "status",
            "--unix", fleet.router_config.unix_path, "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["in_ring"] == 3
        assert sorted(doc["members"]) == ["m0", "m1", "m2"]

    def test_status_needs_an_endpoint(self, capsys):
        code, _, err = run_cli(capsys, "fleet", "status")
        assert code == 2
        assert "--unix" in err

    def test_query_through_the_router(self, capsys, fleet):
        sock = fleet.router_config.unix_path
        code, out, _ = run_cli(capsys, "fleet", "query", "ping",
                               "--unix", sock)
        assert code == 0
        assert "pong" in out
        code, out, _ = run_cli(capsys, "fleet", "query", "infer",
                               "testbox", "--unix", sock, "--seed", "2")
        assert code == 0
        assert "cached                : False" in out

    def test_top_fleet_section(self, capsys, fleet):
        code, out, _ = run_cli(
            capsys, "top", "--unix", fleet.router_config.unix_path,
            "--count", "1", "--no-clear", "--fleet",
        )
        assert code == 0
        assert "fleet   3/3 in ring" in out
        assert "m1" in out


class TestRendering:
    def test_render_fleet_lines(self):
        doc = {
            "in_ring": 2, "total": 3, "rebalances": 4,
            "members": {
                "m0": {"status": "healthy", "drift_severity": "ok"},
                "m1": {"status": "ejected", "drift_severity": None,
                       "consecutive_failures": 2},
            },
        }
        lines = render_fleet_lines(doc)
        assert lines[0] == "fleet   2/3 in ring  rebalances 4"
        assert "healthy" in lines[1] and "drift ok" in lines[1]
        assert "ejected" in lines[2] and "failures 2" in lines[2]

    def test_render_fleet_lines_empty_for_plain_daemons(self):
        assert render_fleet_lines({}) == []
        assert render_fleet_lines({"in_ring": 1}) == []

    def test_render_fleet_cli_text(self):
        doc = {
            "in_ring": 1, "total": 2, "rebalances": 3, "interval": 5.0,
            "fail_threshold": 2,
            "members": {
                "m0": {"status": "healthy", "endpoint": "unix:/tmp/a",
                       "drift_severity": "ok", "checks": 7},
                "m1": {"status": "ejected", "endpoint": "unix:/tmp/b",
                       "checks": 7, "last_error": "refused"},
            },
            "ring": {"members": ["m0"], "replicas": 256},
        }
        text = _render_fleet(doc)
        assert "1/2 members in ring, 3 rebalances" in text
        assert "last_error=refused" in text
        assert "ring: m0 (256 replicas per member)" in text


class TestServeConfigBuilders:
    def test_member_configs_are_cross_peered(self, tmp_path):
        members = _member_configs(RouterConfig(), 3, tmp_path)
        assert [m.member_id for m in members] == ["m0", "m1", "m2"]
        for member in members:
            assert str(tmp_path / "members") in str(member.unix_path)
            assert str(member.store_dir).endswith(
                f"members/{member.member_id}/store"
            )
            peer_ids = {p.split("=")[0] for p in member.peers}
            assert peer_ids == {"m0", "m1", "m2"} - {member.member_id}

    def test_external_members_join_every_peer_list(self, tmp_path):
        config = RouterConfig(
            unix_path=str(tmp_path / "r.sock"),
            members=("ext=unix:/run/ext.sock",),
        )
        members = _member_configs(config, 2, tmp_path)
        for member in members:
            assert "ext=unix:/run/ext.sock" in member.peers
        routed = []

        def ready(router, daemons):
            routed.extend(router.config.members)
            router.request_shutdown()

        assert run_fleet(config, n_members=2, state_dir=tmp_path,
                         ready_callback=ready) == 0
        assert routed == [f"{m.member_id}=unix:{m.unix_path}"
                          for m in members] + ["ext=unix:/run/ext.sock"]

    def test_no_members_at_all_is_rejected(self, tmp_path):
        config = RouterConfig(unix_path=str(tmp_path / "r.sock"),
                              access_log=str(tmp_path / "access.ndjson"),
                              event_log=str(tmp_path / "events.ndjson"))
        with pytest.raises(ServiceError, match="at least one member"):
            run_fleet(config, state_dir=tmp_path / "fleet")
        assert list(tmp_path.iterdir()) == []

    def test_serve_arg_validation(self, capsys):
        code, _, err = run_cli(capsys, "fleet", "serve",
                               "--members", "2")
        assert code == 2
        assert "--unix" in err
        code, _, err = run_cli(capsys, "fleet", "serve",
                               "--unix", "/tmp/r.sock")
        assert code == 2
        assert "--members" in err


def start_fleet_serve(tmp_path, *args) -> "tuple[subprocess.Popen, Path]":
    """``mctop fleet serve ARGS`` as a subprocess on a router socket
    under ``tmp_path``, once its router answers ``ping``."""
    sock = tmp_path / "router.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "serve", *args,
         "--unix", str(sock),
         "--state-dir", str(tmp_path / "fleet"),
         "--repetitions", "31",
         "--drain-timeout", "3"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    while True:
        try:
            with MctopClient(unix_path=sock, timeout=5) as client:
                if client.ping().get("role") == "router":
                    return proc, sock
        except ServiceError:
            if proc.poll() is not None or time.monotonic() > deadline:
                if proc.poll() is None:
                    proc.kill()
                out = proc.communicate(timeout=5)[0]
                raise AssertionError(f"fleet did not come up:\n{out}")
            time.sleep(0.05)


def assert_drained(proc: subprocess.Popen, sock: Path) -> None:
    """SIGTERM drained the whole fleet: exit 0 and the socket removed."""
    out, _ = proc.communicate(timeout=20)
    assert proc.returncode == 0, f"non-zero exit after SIGTERM:\n{out}"
    assert "fleet drained, bye" in out
    assert not sock.exists(), "router socket not cleaned up on drain"


def test_fleet_serve_subprocess_smoke(tmp_path):
    """Black-box: ``mctop fleet serve --members 2``, one warm/cold
    infer pair through the router, SIGTERM drains everything."""
    proc, sock = start_fleet_serve(tmp_path, "--members", "2")
    try:
        with MctopClient(unix_path=sock, timeout=60) as client:
            cold = client.infer("testbox", seed=1)
            warm = client.infer("testbox", seed=1)
            assert cold["cached"] is False
            assert warm["cached"] is True
            assert client.last_upstream["member"] in ("m0", "m1")
            assert client.request("fleet")["in_ring"] == 2
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    assert_drained(proc, sock)


def test_fleet_serve_mixes_spawned_and_external_members(
        tmp_path, daemon_factory):
    """Black-box: one spawned member beside an already-running daemon
    (``--members 1 --member ext=unix:...``); both join the ring and an
    infer answers through it."""
    external = daemon_factory(member_id="ext")
    proc, sock = start_fleet_serve(
        tmp_path, "--members", "1",
        "--member", f"ext=unix:{external.config.unix_path}",
    )
    try:
        with MctopClient(unix_path=sock, timeout=60) as client:
            assert client.request("fleet")["in_ring"] == 2
            result = client.infer("testbox", seed=1)
            assert result["machine"] == "testbox"
            assert client.last_upstream["member"] in ("m0", "ext")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    assert_drained(proc, sock)
