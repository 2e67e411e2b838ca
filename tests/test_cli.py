"""Tests for the mctop command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_all_machines(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in ("ivy", "westmere", "opteron", "sparc", "testbox"):
            assert name in out


class TestInfer:
    def test_infer_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "tb.mct"
        code, out, _ = run_cli(
            capsys, "infer", "testbox", "--seed", "1",
            "--repetitions", "31", "--out", str(out_file),
        )
        assert code == 0
        assert "MCTOP topology 'testbox'" in out
        assert "samples taken" in out
        assert out_file.exists()

    def test_infer_unknown_machine(self, capsys):
        code, _, err = run_cli(capsys, "infer", "cray-1", "--repetitions", "9")
        assert code == 2
        assert "error" in err


class TestInferTrace:
    def test_infer_writes_valid_chrome_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "infer", "testbox", "--seed", "1",
            "--repetitions", "31", "--trace", str(trace_file),
        )
        assert code == 0
        assert "trace written to" in out
        doc = json.loads(trace_file.read_text())
        events = doc["traceEvents"]
        assert events, "trace must contain events"
        phases = {e["ph"] for e in events}
        assert "X" in phases  # complete spans
        assert "C" in phases  # counters
        names = {e["name"] for e in events}
        assert "infer" in names
        assert "lat_table.collect" in names
        for event in events:
            assert set(event) >= {"name", "ph", "ts", "pid", "tid"}


class TestTrace:
    def test_trace_machine_prints_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "testbox", "--seed", "1", "--repetitions", "31"
        )
        assert code == 0
        assert "infer" in out
        assert "lat_table.samples" in out

    def test_trace_machine_with_out_file(self, capsys, tmp_path):
        trace_file = tmp_path / "tb-trace.json"
        code, out, _ = run_cli(
            capsys, "trace", "testbox", "--seed", "1",
            "--repetitions", "31", "--out", str(trace_file),
        )
        assert code == 0
        doc = json.loads(trace_file.read_text())
        assert doc["otherData"]["producer"] == "repro.obs"

    def test_trace_summarizes_saved_file(self, capsys, tmp_path):
        trace_file = tmp_path / "saved.json"
        run_cli(capsys, "trace", "testbox", "--seed", "1",
                "--repetitions", "31", "--out", str(trace_file))
        code, out, _ = run_cli(capsys, "trace", str(trace_file))
        assert code == 0
        assert "events" in out
        assert "spans:" in out
        assert "counters:" in out

    def test_trace_rejects_garbage_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code, _, err = run_cli(capsys, "trace", str(bad))
        assert code == 2
        assert "cannot read trace file" in err

    def test_trace_unknown_target(self, capsys):
        code, _, err = run_cli(capsys, "trace", "pdp-11")
        assert code == 2
        assert "neither a trace file nor a catalog machine" in err


class TestSmokeAllSubcommands:
    """One end-to-end pass over every subcommand in a tmp workdir."""

    def test_full_workflow(self, capsys, tmp_path):
        mct = tmp_path / "tb.mct"
        trace = tmp_path / "tb.json"
        fast = ("--seed", "1", "--repetitions", "31")
        steps = [
            ("list",),
            ("infer", "testbox", *fast, "--out", str(mct),
             "--trace", str(trace)),
            ("show", str(mct), "--ascii"),
            ("dot", "testbox", *fast),
            ("place", "testbox", "--policy", "RR_CORE", "--threads", "2",
             *fast),
            ("validate", "testbox", *fast),
            ("revalidate", str(mct), "testbox", "--seed", "2"),
            ("trace", str(trace)),
        ]
        for argv in steps:
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, f"{argv[0]} failed: {err}"
        assert mct.exists() and trace.exists()


class TestShow:
    def test_show_from_file(self, capsys, tmp_path):
        out_file = tmp_path / "tb.mct"
        run_cli(capsys, "infer", "testbox", "--seed", "1",
                "--repetitions", "31", "--out", str(out_file))
        code, out, _ = run_cli(capsys, "show", str(out_file), "--ascii")
        assert code == 0
        assert "sockets" in out
        assert "+- socket" in out

    def test_show_machine_directly(self, capsys):
        code, out, _ = run_cli(
            capsys, "show", "testbox", "--seed", "1", "--repetitions", "31"
        )
        assert code == 0
        assert "latency levels" in out

    def test_show_nonsense_target(self, capsys):
        code, _, err = run_cli(capsys, "show", "not-a-thing")
        assert code == 2
        assert "neither" in err


class TestDot:
    def test_both_views(self, capsys):
        code, out, _ = run_cli(
            capsys, "dot", "testbox", "--seed", "1", "--repetitions", "31"
        )
        assert code == 0
        assert "graph mctop_intra" in out
        assert "graph mctop_cross" in out

    def test_single_view(self, capsys):
        code, out, _ = run_cli(
            capsys, "dot", "testbox", "--view", "cross",
            "--seed", "1", "--repetitions", "31",
        )
        assert code == 0
        assert "graph mctop_intra" not in out


class TestPlace:
    def test_place_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "place", "testbox", "--policy", "RR_CORE",
            "--threads", "4", "--seed", "1", "--repetitions", "31",
        )
        assert code == 0
        assert "MCTOP_PLACE_RR_CORE" in out
        assert "Max latency" in out

    def test_place_bad_policy(self, capsys):
        with pytest.raises(ValueError):
            run_cli(capsys, "place", "testbox", "--policy", "MAGIC",
                    "--repetitions", "31")


class TestRevalidate:
    def test_unchanged_machine(self, capsys, tmp_path):
        out_file = tmp_path / "tb.mct"
        run_cli(capsys, "infer", "testbox", "--seed", "1",
                "--repetitions", "31", "--out", str(out_file))
        code, out, _ = run_cli(
            capsys, "revalidate", str(out_file), "testbox", "--seed", "2"
        )
        assert code == 0
        assert "still valid" in out

    def test_changed_machine(self, capsys, tmp_path):
        out_file = tmp_path / "tb.mct"
        run_cli(capsys, "infer", "testbox", "--seed", "1",
                "--repetitions", "31", "--out", str(out_file))
        code, out, _ = run_cli(
            capsys, "revalidate", str(out_file), "clusterix"
        )
        assert code == 1
        assert "CHANGED" in out


class TestValidate:
    def test_matching_machine_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "testbox", "--seed", "1",
            "--repetitions", "31",
        )
        assert code == 0
        assert "certainly correct" in out

    def test_misconfigured_machine_exits_nonzero(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "opteron", "--seed", "1",
            "--repetitions", "31",
        )
        assert code == 1
        assert "disagree" in out


class TestSynthTargets:
    def test_show_generated_machine(self, capsys):
        code, out, _ = run_cli(
            capsys, "show", "synth:3:quick", "--repetitions", "11"
        )
        assert code == 0
        assert "MCTOP topology 'synth:3'" in out

    def test_infer_generated_machine(self, capsys, tmp_path):
        out_file = tmp_path / "synth.mct"
        code, out, _ = run_cli(
            capsys, "infer", "synth:3:quick", "--repetitions", "11",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.exists()

    def test_bad_synth_name(self, capsys):
        code, _, err = run_cli(capsys, "show", "synth:abc")
        assert code == 2
        assert "error" in err


class TestFuzz:
    def test_small_campaign_passes(self, capsys, tmp_path):
        report = tmp_path / "fuzz.json"
        code, out, _ = run_cli(
            capsys, "fuzz", "--count", "3", "--seed", "0", "--quick",
            "--out", str(report),
        )
        assert code == 0
        assert "fuzz: 3 machines" in out
        assert "digest" in out
        doc = json.loads(report.read_text())
        assert doc["format"] == "mctop-fuzz-report"
        assert doc["ok"]
        assert len(doc["cases"]) == 3

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "--count", "2", "--quick", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"]
        assert doc["digest"]

    def test_digest_reproducible_across_invocations(self, capsys):
        _, out_a, _ = run_cli(
            capsys, "fuzz", "--count", "3", "--quick", "--json"
        )
        _, out_b, _ = run_cli(
            capsys, "fuzz", "--count", "3", "--quick", "--json",
            "--jobs", "2",
        )
        assert json.loads(out_a)["digest"] == json.loads(out_b)["digest"]

