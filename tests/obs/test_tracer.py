"""Unit tests for the structured tracer and the exporters."""

from __future__ import annotations

import json
from contextlib import contextmanager

import pytest

from repro.obs import Observability, Tracer, to_chrome_trace, to_json
from repro.obs.tracer import Span
from repro.obs.export import render_report, write_chrome_trace


def make_clock(step: float = 1.0):
    """A deterministic clock advancing ``step`` seconds per call."""
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


class TestSpans:
    def test_nesting_and_parent_links(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("outer") as outer_id:
            with tracer.span("inner") as inner_id:
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].parent_id == outer_id
        assert spans["inner"].depth == 1
        assert spans["outer"].parent_id is None
        assert spans["outer"].depth == 0
        assert inner_id != outer_id

    def test_span_args_and_duration(self):
        tracer = Tracer(clock=make_clock(0.5))
        with tracer.span("work", items=3):
            pass
        (span,) = tracer.spans()
        assert span.args == {"items": 3}
        assert span.dur_us == pytest.approx(0.5e6)

    def test_span_closes_on_exception(self):
        tracer = Tracer(clock=make_clock())
        with pytest.raises(RuntimeError):
            with tracer.span("explodes"):
                raise RuntimeError("boom")
        assert tracer.active_depth == 0
        assert [s.name for s in tracer.spans()] == ["explodes"]

    def test_instants_attach_to_active_span(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("outer") as outer_id:
            tracer.instant("ping", n=1)
        (instant,) = tracer.instants_named("ping")
        assert instant.parent_id == outer_id
        assert instant.args == {"n": 1}


class TestRingBuffer:
    def test_oldest_events_dropped_at_capacity(self):
        tracer = Tracer(capacity=3, clock=make_clock())
        for i in range(5):
            tracer.instant(f"e{i}")
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events] == ["e2", "e3", "e4"]
        assert tracer.instants == 5  # summary counts are not truncated

    def test_summary_aggregates_by_name(self):
        tracer = Tracer(clock=make_clock())
        for _ in range(3):
            with tracer.span("step"):
                pass
        summary = tracer.summary()
        assert summary["finished_spans"] == 3
        assert summary["by_name"]["step"]["count"] == 3

    def test_span_overflow_is_counted_not_silent(self):
        """Overflowing the ring with spans must leave a visible signal."""
        tracer = Tracer(capacity=4, clock=make_clock())
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.events) == 4
        assert tracer.dropped == 6
        assert tracer.dropped_spans == 6
        summary = tracer.summary()
        assert summary["dropped_spans"] == 6
        assert summary["dropped"] == 6
        # The untruncated totals still count every span ever finished.
        assert summary["finished_spans"] == 10

    def test_dropped_spans_excludes_instants(self):
        tracer = Tracer(capacity=2, clock=make_clock())
        tracer.instant("i0")
        tracer.instant("i1")
        with tracer.span("s0"):
            pass
        assert tracer.dropped == 1  # i0 evicted by the span
        assert tracer.dropped_spans == 0


class TestAdoptedSpans:
    def test_adopted_span_parents_under_open_span(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("merge") as merge_id:
            child = tracer.adopt_span("chunk", dur_us=120.0, worker=0,
                                      n_pairs=7)
        spans = {s.name: s for s in tracer.spans()}
        assert spans["chunk"].parent_id == merge_id
        assert spans["chunk"].stitched is True
        assert spans["chunk"].dur_us == 120.0
        assert spans["chunk"].args["n_pairs"] == 7
        assert child != merge_id

    def test_adopted_spans_excluded_from_summary(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("merge"):
            for w in range(3):
                tracer.adopt_span("chunk", dur_us=10.0, worker=w)
        summary = tracer.summary()
        assert summary["finished_spans"] == 1
        assert "chunk" not in summary["by_name"]
        assert tracer.adopted_spans == 3

    def test_adopted_span_exports_with_worker_tid(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("merge"):
            tracer.adopt_span("chunk", dur_us=10.0, worker=2)
        doc = to_chrome_trace(tracer)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["chunk"]["tid"] == 3
        assert by_name["merge"]["tid"] == 0
        assert by_name["chunk"]["args"]["worker"] == 2

    def test_adopted_to_dict_flags_stitched(self):
        tracer = Tracer(clock=make_clock())
        tracer.adopt_span("chunk", dur_us=5.0)
        (span,) = tracer.spans()
        assert span.to_dict()["stitched"] is True
        with tracer.span("native"):
            pass
        native = tracer.spans_named("native")[0]
        assert "stitched" not in native.to_dict()


class TestConcurrentTaskStacks:
    def test_interleaved_tasks_parent_independently(self):
        """Two asyncio tasks interleaving spans must not cross-parent."""
        import asyncio

        tracer = Tracer(clock=make_clock())

        async def request(name: str) -> None:
            with tracer.span(f"request.{name}"):
                await asyncio.sleep(0)  # force interleaving
                with tracer.span(f"inner.{name}"):
                    await asyncio.sleep(0)

        async def main() -> None:
            await asyncio.gather(request("a"), request("b"))

        asyncio.run(main())
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner.a"].parent_id == spans["request.a"].id
        assert spans["inner.b"].parent_id == spans["request.b"].id
        assert spans["request.a"].parent_id is None
        assert spans["request.b"].parent_id is None
        assert spans["request.a"].depth == 0
        assert spans["inner.b"].depth == 1


class GeneratorSpanTracer(Tracer):
    """The tracer with ``span`` as the ``@contextmanager`` generator it
    used to be: the reference for :meth:`Tracer.span`."""

    @contextmanager
    def span(self, name: str, **args):
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack_var.get()
        parent = stack[-1][0] if stack else None
        depth = len(stack)
        token = self._stack_var.set(stack + ((span_id, name),))
        start = self._now_us()
        try:
            yield span_id
        finally:
            end = self._now_us()
            self._stack_var.reset(token)
            self.finished_spans += 1
            self._record(Span(id=span_id, name=name, start_us=start,
                              dur_us=end - start, depth=depth,
                              parent_id=parent, args=args))


class TestSpanMatchesTheGeneratorSpan:
    """Every scenario, run on the tracer and on the reference under a
    counter clock and a sink, leaves the same events, counts and sink
    calls, and hands out the same span ids."""

    @staticmethod
    def _run(tracer_cls, scenario, capacity: int = 8192):
        tracer = tracer_cls(capacity=capacity, clock=make_clock(0.25))
        calls = []

        def sink(event):
            calls.append(event.to_dict())
            if event.name == "sink.fails":
                raise RuntimeError("sink exploded")

        tracer.sink = sink
        ids = scenario(tracer)
        return {
            "ids": ids,
            "events": [event.to_dict() for event in tracer.events],
            "calls": calls,
            "summary": tracer.summary(),
            "adopted": tracer.adopted_spans,
            "depth": tracer.active_depth,
        }

    def _same(self, scenario, capacity: int = 8192) -> dict:
        got = self._run(Tracer, scenario, capacity)
        want = self._run(GeneratorSpanTracer, scenario, capacity)
        assert got == want
        return got

    def test_nested_spans_instants_and_args(self):
        def scenario(tracer):
            ids = []
            with tracer.span("outer", verb="place") as outer:
                ids.append(outer)
                tracer.instant("marker", n=1)
                with tracer.span("inner", key="abc") as inner:
                    ids.append(inner)
                    tracer.adopt_span("worker", 5.0, chunk=0)
                with tracer.span("sink.fails") as failing:
                    ids.append(failing)
            # Ids are taken on entry, not when the span is made.
            first = tracer.span("made.first")
            second = tracer.span("made.second")
            with second as second_id, first as first_id:
                ids.extend((first_id, second_id))
            return ids

        result = self._same(scenario)
        assert result["summary"]["sink_errors"] == 1

    def test_raising_spans(self):
        def scenario(tracer):
            raised = []
            for error in (ValueError("v"), KeyError("k"), StopIteration(3),
                          GeneratorExit()):
                try:
                    with tracer.span("outer"):
                        with tracer.span("raises", kind=type(error).__name__):
                            raise error
                except BaseException as exc:
                    raised.append((type(exc).__name__, exc is error))
            return raised

        result = self._same(scenario)
        assert result["ids"] == [("ValueError", True), ("KeyError", True),
                                 ("StopIteration", True),
                                 ("GeneratorExit", True)]
        assert result["depth"] == 0

    def test_interleaved_tasks(self):
        import asyncio

        def scenario(tracer):
            async def request(name: str) -> None:
                with tracer.span(f"request.{name}", request_id=name):
                    await asyncio.sleep(0)
                    with tracer.span(f"inner.{name}"):
                        await asyncio.sleep(0)
                        tracer.instant(f"mark.{name}")
                    if name == "b":
                        raise ValueError(name)

            async def main() -> list:
                outcomes = await asyncio.gather(
                    request("a"), request("b"), request("c"),
                    return_exceptions=True,
                )
                return [repr(outcome) for outcome in outcomes]

            return asyncio.run(main())

        self._same(scenario)

    def test_drops_at_capacity(self):
        def scenario(tracer):
            for i in range(7):
                with tracer.span("s", i=i):
                    tracer.instant("i", i=i)

        result = self._same(scenario, capacity=4)
        assert result["summary"]["dropped_spans"] > 0


class TestExport:
    def _traced_obs(self):
        obs = Observability(clock=make_clock())
        with obs.span("outer"):
            with obs.span("inner"):
                obs.instant("marker")
        obs.counter("samples").inc(42)
        obs.gauge("clusters").set(4)
        return obs

    def test_chrome_trace_document_shape(self):
        obs = self._traced_obs()
        doc = to_chrome_trace(obs.tracer, obs.registry)
        assert isinstance(doc["traceEvents"], list)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i", "C"}
        for event in doc["traceEvents"]:
            assert "name" in event and "ts" in event and "pid" in event
        counters = {
            e["name"]: e["args"]["value"]
            for e in doc["traceEvents"]
            if e["ph"] == "C"
        }
        assert counters == {"samples": 42, "clusters": 4}

    def test_written_file_is_valid_json(self, tmp_path):
        obs = self._traced_obs()
        path = write_chrome_trace(tmp_path / "t.json", obs.tracer,
                                  obs.registry)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["producer"] == "repro.obs"

    def test_raw_json_dump_round_trips(self):
        obs = self._traced_obs()
        doc = json.loads(json.dumps(to_json(obs.tracer, obs.registry)))
        assert doc["format"] == "repro-obs"
        assert doc["summary"]["finished_spans"] == 2
        assert doc["metrics"]["samples"]["value"] == 42

    def test_render_report_mentions_spans_and_metrics(self):
        obs = self._traced_obs()
        report = render_report(obs.tracer, obs.registry)
        assert "outer" in report and "inner" in report
        assert "samples" in report and "42" in report


class TestSinkHardening:
    def test_raising_sink_never_fails_the_request(self):
        tracer = Tracer(clock=make_clock())

        def bad_sink(event):
            raise RuntimeError("sink exploded")

        tracer.sink = bad_sink
        # neither spans nor instants propagate the sink's exception
        with tracer.span("request"):
            tracer.instant("marker")
        assert tracer.sink_errors == 2
        assert [e.name for e in tracer.events] == ["marker", "request"]
        assert tracer.summary()["sink_errors"] == 2

    def test_sink_errors_count_only_failures(self):
        tracer = Tracer(clock=make_clock())
        seen = []

        def flaky_sink(event):
            seen.append(event.name)
            if event.name == "bad":
                raise ValueError("nope")

        tracer.sink = flaky_sink
        tracer.instant("good")
        tracer.instant("bad")
        tracer.instant("good2")
        assert seen == ["good", "bad", "good2"]
        assert tracer.sink_errors == 1

    def test_reset_zeroes_sink_errors(self):
        tracer = Tracer(clock=make_clock())
        tracer.sink = lambda event: 1 / 0
        tracer.instant("x")
        assert tracer.sink_errors == 1
        tracer.reset()
        assert tracer.sink_errors == 0
        assert tracer.summary()["sink_errors"] == 0


class TestObservability:
    def test_summary_is_deterministic_counts_only(self):
        obs = self._run()
        again = self._run()
        assert obs.summary() == again.summary()
        assert "total_us" not in json.dumps(obs.summary())

    @staticmethod
    def _run():
        obs = Observability()  # real clock: summary must not include it
        with obs.span("a"):
            obs.counter("n").inc(7)
        return obs
