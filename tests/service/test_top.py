"""``mctop top`` — the live metrics dashboard."""

from __future__ import annotations

from repro.cli import main
from repro.errors import ServiceError
from repro.service.top import (
    CLEAR,
    render_dashboard,
    render_drift_lines,
    render_place_lines,
    render_profile_lines,
    render_slo_lines,
    render_slowest_lines,
    run_top,
)


def _metrics_doc(ping=3, infer=1, p50=0.002, hits=1, misses=1):
    return {
        "registry": {
            "service.requests.ping": {"kind": "counter", "value": ping},
            "service.requests.infer": {"kind": "counter", "value": infer},
            "service.latency.infer": {
                "kind": "timer", "count": infer, "total": p50 * infer,
                "p50": p50, "p95": p50 * 2, "p99": p50 * 3,
            },
            "service.queue_depth": {"kind": "gauge", "value": 2},
            "service.connections.open": {"kind": "gauge", "value": 1},
            "service.cache.hits.memory": {"kind": "counter", "value": hits},
            "service.cache.misses": {"kind": "counter", "value": misses},
            "service.singleflight.coalesced": {"kind": "counter", "value": 4},
            "service.inference.runs": {"kind": "counter", "value": infer},
        },
        "trace": {"finished_spans": 10, "instants": 2, "dropped": 0,
                  "dropped_spans": 0},
        "cache": {"memory_entries": 1},
        "inflight_inferences": ["abcdef0123456789"],
    }


class TestRenderDashboard:
    def test_first_frame_has_totals_and_quantiles(self):
        text = render_dashboard(_metrics_doc())
        assert "requests 4" in text
        assert "req/s -" in text          # no previous frame yet
        assert "in-flight 2" in text
        assert "hit ratio 50%" in text
        assert "coalesced 4" in text
        assert "dropped_spans 0" in text
        infer_row = next(l for l in text.splitlines()
                         if l.startswith("infer"))
        assert "2.0" in infer_row and "6.0" in infer_row  # p50/p99 ms
        assert "inferring: abcdef012345" in text

    def test_rates_come_from_consecutive_frames(self):
        prev = _metrics_doc(ping=3)
        cur = _metrics_doc(ping=13)
        text = render_dashboard(cur, prev, dt=2.0)
        ping_row = next(l for l in text.splitlines()
                        if l.startswith("ping"))
        assert "5.0" in ping_row  # (13-3)/2s

    def test_render_is_pure(self):
        doc = _metrics_doc()
        assert render_dashboard(doc) == render_dashboard(doc)


def _drift_doc(severity="ok", age=3.0):
    return {
        "enabled": True,
        "worst_severity": severity,
        "machines": {
            "testbox": {"severity": severity, "age_seconds": age,
                        "checks": 2},
        },
    }


class TestDriftSection:
    def test_drift_lines_show_severity_and_age(self):
        lines = render_drift_lines(_drift_doc("critical", age=7.0))
        assert lines[0] == "drift   worst critical"
        assert "testbox" in lines[1]
        assert "critical" in lines[1]
        assert "checked 7s ago" in lines[1]

    def test_unchecked_machine_shows_pending(self):
        doc = _drift_doc()
        doc["machines"]["testbox"]["age_seconds"] = None
        assert "not checked yet" in render_drift_lines(doc)[1]

    def test_disabled_or_missing_drift_renders_nothing(self):
        assert render_drift_lines({}) == []
        assert render_drift_lines({"enabled": False}) == []
        text = render_dashboard(_metrics_doc(), drift={"enabled": False})
        assert "drift" not in text

    def test_dashboard_includes_drift_section(self):
        text = render_dashboard(_metrics_doc(), drift=_drift_doc("warn"))
        assert "drift   worst warn" in text


def _place_registry(hits=8, misses=2, builds=1, batches=None):
    registry = {
        "service.place.index_hits": {"kind": "counter", "value": hits},
        "service.place.index_misses": {"kind": "counter", "value": misses},
        "service.place.index_builds": {"kind": "counter", "value": builds},
    }
    if batches is not None:
        registry["service.place.batch_size"] = {
            "kind": "histogram", "count": batches,
            "p50": 16.0, "p99": 512.0, "max": 512.0,
        }
    return registry


class TestPlaceSection:
    def test_no_placement_traffic_renders_nothing(self):
        assert render_place_lines({}, None, None) == []
        text = render_dashboard(_metrics_doc())
        assert "place   index" not in text

    def test_hit_ratio_and_counters(self):
        lines = render_place_lines(_place_registry(), None, None)
        assert len(lines) == 1
        assert "place   index hit ratio 80%" in lines[0]
        assert "(8 hit / 2 miss)" in lines[0]
        assert "builds 1" in lines[0]

    def test_batch_histogram_line(self):
        lines = render_place_lines(
            _place_registry(batches=3), None, None
        )
        assert len(lines) == 2
        assert "batches 3" in lines[1]
        assert "size p50 16" in lines[1]
        assert "p99 512" in lines[1]

    def test_lookup_rate_from_consecutive_frames(self):
        prev = _place_registry(hits=0, misses=0, builds=1)
        cur = _place_registry(hits=20, misses=0, builds=1)
        lines = render_place_lines(cur, prev, 2.0)
        assert "lookups/s 10.0" in lines[0]

    def test_dashboard_includes_the_section(self):
        doc = _metrics_doc()
        doc["registry"].update(_place_registry(batches=1))
        text = render_dashboard(doc)
        assert "place   index hit ratio" in text


def _slo_doc(alert=None, degraded=False):
    return {
        "enabled": True,
        "degraded": degraded,
        "objectives": {"place": {
            "p99_ms": 50.0, "availability": 0.999, "alert": alert,
            "burn": {"fast": 20.0 if alert else 0.1, "slow": 1.0},
            "good": 90, "bad": 10,
        }},
    }


class TestSloPanel:
    def test_slo_lines_show_burn_and_alert(self):
        lines = render_slo_lines(_slo_doc(alert="fast", degraded=True))
        assert lines[0] == "slo     DEGRADED (fast burn)"
        assert "place" in lines[1]
        assert "burn fast 20.00" in lines[1]
        assert "alert fast" in lines[1]
        assert "good 90 bad 10" in lines[1]

    def test_slo_lines_empty_when_disabled(self):
        assert render_slo_lines({"enabled": False}) == []
        assert render_slo_lines(None) == []

    def test_member_attribution_only_when_alerting(self):
        doc = _slo_doc(alert="slow")
        doc["objectives"]["place"]["member"] = "m1"
        assert "(m1)" in render_slo_lines(doc)[1]
        quiet = _slo_doc()
        quiet["objectives"]["place"]["member"] = "m1"
        assert "(m1)" not in render_slo_lines(quiet)[1]

    def test_dashboard_includes_slo_section(self):
        text = render_dashboard(_metrics_doc(), slo=_slo_doc())
        assert "slo     ok" in text


class TestSlowestPanel:
    def test_slowest_lines_sorted_and_capped(self):
        registry = {
            "service.latency.place": {
                "kind": "timer",
                "exemplars": [[0.5, "slowid"], [0.001, "fastid"]],
            },
            "service.latency.infer": {
                "kind": "timer",
                "exemplars": [[2.0, "slowest"]],
            },
        }
        lines = render_slowest_lines(registry)
        assert lines[0] == "slowest requests (mctop trace show <id>)"
        assert "slowest" in lines[1] and "infer" in lines[1]
        assert "slowid" in lines[2]

    def test_no_exemplars_renders_nothing(self):
        assert render_slowest_lines(
            {"service.latency.place": {"kind": "timer"}}
        ) == []
        # ...and the dashboard simply omits the section.
        assert "slowest requests" not in render_dashboard(_metrics_doc())


class _FakeClient:
    def __init__(self, docs):
        self.docs = list(docs)
        self.calls = 0

    def metrics(self, **params):
        doc = self.docs[min(self.calls, len(self.docs) - 1)]
        self.calls += 1
        return doc


class TestRunTop:
    def test_bounded_frames_and_clear_codes(self):
        frames = []
        client = _FakeClient([_metrics_doc(ping=1), _metrics_doc(ping=5)])
        code = run_top(client, interval=0.0, count=2, clear=True,
                       write=frames.append)
        assert code == 0
        assert client.calls == 2
        assert len(frames) == 2
        assert frames[0].startswith(CLEAR)
        # The second frame has a rate (a previous frame existed).
        assert "req/s -" not in frames[1]

    def test_no_clear_suppresses_ansi(self):
        frames = []
        run_top(_FakeClient([_metrics_doc()]), interval=0.0, count=1,
                clear=False, write=frames.append)
        assert CLEAR not in frames[0]

    def test_degrades_without_a_drift_verb(self):
        # _FakeClient has no .drift at all (an "older daemon" stand-in):
        # the loop must drop the section, not crash, and stop retrying.
        frames = []
        code = run_top(_FakeClient([_metrics_doc()] * 2), interval=0.0,
                       count=2, clear=False, write=frames.append)
        assert code == 0
        assert all("drift" not in f for f in frames)

    def test_drift_section_from_a_drift_capable_client(self):
        class DriftClient(_FakeClient):
            def drift(self, **params):
                return {
                    "enabled": True, "worst_severity": "critical",
                    "machines": {"testbox": {
                        "severity": "critical", "age_seconds": 1.0,
                        "checks": 3,
                    }},
                }

        frames = []
        run_top(DriftClient([_metrics_doc()]), interval=0.0, count=1,
                clear=False, write=frames.append)
        assert "drift   worst critical" in frames[0]

    def test_degrades_without_an_slo_verb(self):
        # _FakeClient has no .slo: the panel drops, the loop survives.
        frames = []
        code = run_top(_FakeClient([_metrics_doc()] * 2), interval=0.0,
                       count=2, clear=False, write=frames.append)
        assert code == 0
        assert all("slo " not in f for f in frames)

    def test_slo_panel_from_a_capable_client(self):
        class SloClient(_FakeClient):
            def slo(self):
                return _slo_doc(alert="fast", degraded=True)

        frames = []
        run_top(SloClient([_metrics_doc()]), interval=0.0, count=1,
                clear=False, write=frames.append)
        assert "slo     DEGRADED (fast burn)" in frames[0]

    def test_unknown_verb_error_disables_slo_polling(self):
        class OldDaemonClient(_FakeClient):
            def __init__(self, docs):
                super().__init__(docs)
                self.slo_calls = 0

            def slo(self):
                self.slo_calls += 1
                raise ServiceError("unknown verb", code="unknown_verb")

        client = OldDaemonClient([_metrics_doc()] * 3)
        code = run_top(client, interval=0.0, count=3, clear=False,
                       write=lambda _: None)
        assert code == 0
        assert client.slo_calls == 1

    def test_unknown_verb_error_disables_drift_polling(self):
        class OldDaemonClient(_FakeClient):
            def __init__(self, docs):
                super().__init__(docs)
                self.drift_calls = 0

            def drift(self, **params):
                self.drift_calls += 1
                raise ServiceError("unknown verb", code="unknown_verb")

        client = OldDaemonClient([_metrics_doc()] * 3)
        code = run_top(client, interval=0.0, count=3, clear=False,
                       write=lambda _: None)
        assert code == 0
        assert client.drift_calls == 1  # give up after the first error


class TestTopCli:
    def test_against_a_live_daemon(self, capsys, harness):
        with harness.client() as client:
            client.infer("testbox", seed=5)
        code = main(["top", "--unix", str(harness.config.unix_path),
                     "--count", "2", "--interval", "0", "--no-clear"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mctopd" in out
        infer_rows = [l for l in out.splitlines() if l.startswith("infer")]
        assert len(infer_rows) == 2  # one per frame

    def test_endpoint_required(self, capsys):
        code = main(["top"])
        assert code == 2
        assert "--unix" in capsys.readouterr().err


def _profile_doc(samples=100, dropped=0):
    return {
        "enabled": True, "samples": samples, "dropped": dropped,
        "hz": 100.0, "overhead_fraction": 0.0123,
        "stacks": [
            {"stack": ["main", "serve", "place"], "count": 60,
             "verb": "place"},
            {"stack": ["main", "serve", "infer"], "count": 30,
             "verb": "infer"},
            {"stack": ["main", "place"], "count": 10, "verb": "place"},
        ],
    }


class TestProfilePanel:
    def test_header_and_hot_leaves(self):
        lines = render_profile_lines(_profile_doc())
        assert lines[0] == "profile 100 samples @ 100Hz  overhead ~1.23%"
        # leaf frames aggregate across stacks, hottest first
        assert lines[1] == "  70.0%  place"
        assert lines[2] == "  30.0%  infer"

    def test_dropped_shown_only_when_nonzero(self):
        assert "dropped" not in render_profile_lines(_profile_doc())[0]
        header = render_profile_lines(_profile_doc(dropped=7))[0]
        assert "dropped 7" in header

    def test_top_caps_rows(self):
        doc = _profile_doc()
        doc["stacks"] = [
            {"stack": [f"leaf{i}"], "count": 1} for i in range(10)
        ]
        assert len(render_profile_lines(doc, top=3)) == 4  # header + 3

    def test_disabled_or_missing_renders_nothing(self):
        assert render_profile_lines({}) == []
        assert render_profile_lines({"enabled": False}) == []
        text = render_dashboard(_metrics_doc(),
                                profile={"enabled": False})
        assert "profile" not in text

    def test_no_samples_is_header_only(self):
        doc = {"enabled": True, "samples": 0, "hz": 100.0, "stacks": []}
        assert render_profile_lines(doc) == ["profile 0 samples @ 100Hz"]

    def test_dashboard_includes_profile_section(self):
        text = render_dashboard(_metrics_doc(), profile=_profile_doc())
        assert "profile 100 samples" in text
        assert "70.0%  place" in text


class TestRunTopProfile:
    def test_degrades_without_a_profile_verb(self):
        # _FakeClient has no .profile: the panel drops, the loop lives.
        frames = []
        code = run_top(_FakeClient([_metrics_doc()] * 2), interval=0.0,
                       count=2, clear=False, write=frames.append)
        assert code == 0
        assert all("profile" not in f for f in frames)

    def test_profile_panel_from_a_capable_client(self):
        class ProfileClient(_FakeClient):
            def profile(self, **params):
                return _profile_doc()

        frames = []
        run_top(ProfileClient([_metrics_doc()]), interval=0.0, count=1,
                clear=False, write=frames.append)
        assert "profile 100 samples" in frames[0]

    def test_unknown_verb_error_disables_profile_polling(self):
        class OldDaemonClient(_FakeClient):
            def __init__(self, docs):
                super().__init__(docs)
                self.profile_calls = 0

            def profile(self, **params):
                self.profile_calls += 1
                raise ServiceError("unknown verb", code="unknown_verb")

        client = OldDaemonClient([_metrics_doc()] * 3)
        code = run_top(client, interval=0.0, count=3, clear=False,
                       write=lambda _: None)
        assert code == 0
        assert client.profile_calls == 1
