"""The daemon's indexed placement path: ``place`` v2 and ``place_many``.

Pins the redesigned wire contract: ``place`` responses carry the
``index`` provenance bit and a server-side ``ms``, ``place_many``
amortizes one frame over a batch whose results are byte-identical to
the equivalent single calls, and the placement counters/histogram feed
``mctop top``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.serialize import mctop_from_dict
from repro.errors import ServiceError
from repro.place import Placement, policies
from repro.place.policies import ALL_POLICIES


def served_topology(client):
    """The daemon's topology for ``testbox`` seed 1, for the oracle."""
    doc = client.infer("testbox", seed=1, include_topology=True)
    return mctop_from_dict(doc["topology"])


def _strip(doc: dict) -> dict:
    """A single ``place`` response minus its per-call envelope, i.e.
    exactly what the same query yields inside a ``place_many`` batch."""
    return {k: v for k, v in doc.items() if k not in ("key", "cached", "ms")}


class TestPlaceResponse:
    def test_versioned_response_comes_from_the_index(self, harness):
        with harness.client() as client:
            doc = client.place("testbox", "RR_CORE", threads=4, seed=1)
        assert doc["index"] is True
        assert isinstance(doc["ms"], float)
        assert doc["policy"] == "RR_CORE"
        assert doc["n_threads"] == 4
        assert isinstance(doc["ordering"], list)
        assert "Figure 7" in doc["stats"] or "latency" in doc["stats"]

    def test_every_policy_matches_in_process_placement(self, harness):
        """The oracle: an in-process ``Placement`` on the topology the
        daemon serves yields the same ordering and stats, byte for
        byte, for all 12 policies."""
        with harness.client() as client:
            mctop = served_topology(client)
            for policy in ALL_POLICIES:
                for threads in (1, 4, None):
                    doc = client.place("testbox", policy.value,
                                       threads=threads, seed=1)
                    expected = Placement(mctop, policy, threads)
                    assert doc["index"] is True
                    assert doc["ordering"] == list(expected.ordering)
                    assert doc["stats"] == expected.print_stats()

    def test_batch_matches_in_process_placement(self, harness):
        queries = [{"policy": p.value, "threads": 3} for p in ALL_POLICIES]
        with harness.client() as client:
            mctop = served_topology(client)
            doc = client.place_many("testbox", queries, seed=1)
        for query, result in zip(queries, doc["results"]):
            expected = Placement(mctop, query["policy"], 3)
            assert result["ordering"] == list(expected.ordering)
            assert result["stats"] == expected.print_stats()


class TestPlaceMany:
    QUERIES = [
        {"policy": "RR_CORE", "threads": 4},
        {"policy": "CON_HWC", "threads": 2},
        {"policy": "CON_HWC"},
        {"policy": "BALANCE_CORE", "threads": 6},
        {"policy": "RR_HWC", "threads": 8},
    ]

    def test_batch_matches_singles_byte_for_byte(self, harness):
        with harness.client() as client:
            batch = client.place_many("testbox", self.QUERIES, seed=1)
            singles = [
                client.place("testbox", q["policy"],
                             threads=q.get("threads"), seed=1)
                for q in self.QUERIES
            ]
        assert batch["n_queries"] == len(self.QUERIES)
        assert batch["results"] == [_strip(s) for s in singles]

    def test_inline_error_does_not_abort_the_batch(self, harness):
        queries = [
            {"policy": "RR_CORE", "threads": 4},
            {"policy": "NOT_A_POLICY"},
            {"policy": "CON_HWC", "threads": 9999},
            {"policy": "CON_HWC", "threads": 2},
        ]
        with harness.client() as client:
            doc = client.place_many("testbox", queries, seed=1)
        results = doc["results"]
        assert results[0]["index"] is True
        assert results[1]["error"]["code"] == "invalid_params"
        assert "error" in results[2]  # beyond capacity
        assert results[3]["ordering"]

    def test_include_stats_false_omits_stats(self, harness):
        with harness.client() as client:
            doc = client.place_many("testbox", self.QUERIES,
                                    include_stats=False, seed=1)
        for result in doc["results"]:
            assert "stats" not in result
            assert result["ordering"]

    def test_batch_cap_is_enforced(self, harness):
        queries = [{"policy": "RR_CORE"}] * 4097
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.place_many("testbox", queries, seed=1)
        assert excinfo.value.code == "invalid_params"
        assert "4096" in str(excinfo.value)

    @pytest.mark.parametrize("queries", [[], "not-a-list", None])
    def test_malformed_queries_rejected(self, harness, queries):
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("place_many", machine="testbox",
                               queries=queries, seed=1)
        assert excinfo.value.code == "invalid_params"

    def test_the_memo_never_skips_validation(self, harness):
        """``True == 1 == 1.0`` in Python and all three hash alike, so a
        memoized ``threads: 1`` (or ``sockets: 1``) must not answer a
        later ``threads: true`` / ``1.0`` (or ``sockets: true``): each
        is refused inline, and ``place`` refuses the same params."""
        valid = [{"policy": "RR_CORE", "threads": 1},
                 {"policy": "RR_CORE", "threads": 2, "sockets": 1}]
        invalid = [{"policy": "RR_CORE", "threads": True},
                   {"policy": "RR_CORE", "threads": 1.0},
                   {"policy": "RR_CORE", "threads": 2, "sockets": True}]
        with harness.client() as client:
            first = client.place_many("testbox", valid, seed=1)
            assert all(r["index"] for r in first["results"])
            doc = client.place_many("testbox", invalid, seed=1)
            for result in doc["results"]:
                assert result["error"]["code"] == "invalid_params"
            for query in invalid:
                with pytest.raises(ServiceError) as excinfo:
                    client.request("place", machine="testbox", seed=1,
                                   **query)
                assert excinfo.value.code == "invalid_params"

    def test_a_policy_that_is_not_a_string_is_invalid(self, harness):
        """A list or object ``policy`` cannot be looked up: ``place``
        answers ``invalid_params``, not ``internal``, and in a batch
        only that query gets an inline error."""
        bad = (["RR_CORE"], {"RR_CORE": 1})
        with harness.client() as client:
            for policy in bad:
                with pytest.raises(ServiceError) as excinfo:
                    client.request("place", machine="testbox", seed=1,
                                   policy=policy, threads=1)
                assert excinfo.value.code == "invalid_params"
            queries = [{"policy": "RR_CORE", "threads": 1},
                       *({"policy": policy, "threads": 1} for policy in bad),
                       {"policy": "RR_CORE", "threads": 2}]
            results = client.place_many("testbox", queries,
                                        seed=1)["results"]
        assert results[0]["index"] and results[3]["index"]
        for result in results[1:3]:
            assert result["error"]["code"] == "invalid_params"

    def test_repeat_batches_are_served_from_the_memo(self, harness):
        with harness.client() as client:
            client.place_many("testbox", self.QUERIES, seed=1)
            before = client.metrics()
            client.place_many("testbox", self.QUERIES, seed=1)
            after = client.metrics()
        hits = "service.place.index_hits"
        gained = (after["registry"][hits]["value"]
                  - before["registry"][hits]["value"])
        assert gained >= len(self.QUERIES)


class TestWarmRestart:
    """A daemon restarted on a warm store builds each index from the
    stored topology with the code it runs; no index is ever stored."""

    QUERIES = [
        {"policy": p.value, **({} if t is None else {"threads": t})}
        for p in ALL_POLICIES for t in (1, 3, None)
    ]

    def test_restart_answers_byte_identically(self, daemon_factory,
                                              tmp_path):
        first = daemon_factory()
        with first.client() as client:
            before = client.place_many("testbox", self.QUERIES, seed=1)
        first.stop()
        second = daemon_factory()
        with second.client() as client:
            after = client.place_many("testbox", self.QUERIES, seed=1)
            registry = client.metrics()["registry"]
        assert json.dumps(after["results"]) == json.dumps(before["results"])
        assert registry["service.cache.hits.disk"]["value"] == 1
        assert registry["service.place.index_builds"]["value"] == 1
        assert not list((tmp_path / "store").glob("*.pidx*"))

    def test_restart_serves_the_running_code(self, daemon_factory,
                                             monkeypatch):
        first = daemon_factory()
        with first.client() as client:
            before = client.place("testbox", "CON_HWC", threads=4, seed=1)
            mctop = served_topology(client)
        first.stop()
        # A changed CON_HWC: each socket's contexts in reverse.
        original = policies._socket_hwc_order
        monkeypatch.setattr(policies, "_socket_hwc_order",
                            lambda m, s: original(m, s)[::-1])
        second = daemon_factory()
        with second.client() as client:
            doc = client.place("testbox", "CON_HWC", threads=4, seed=1)
        expected = Placement(mctop, "CON_HWC", 4)
        assert doc["ordering"] != before["ordering"]
        assert doc["ordering"] == list(expected.ordering)
        assert doc["stats"] == expected.print_stats()


class TestPlacementObservability:
    def test_counters_and_batch_histogram(self, harness):
        with harness.client() as client:
            client.place("testbox", "RR_CORE", threads=4, seed=1)
            client.place_many("testbox", TestPlaceMany.QUERIES, seed=1)
            registry = client.metrics()["registry"]
        assert registry["service.place.index_hits"]["value"] >= 1
        batch = registry["service.place.batch_size"]
        assert batch["count"] == 1
        assert batch["total"] == len(TestPlaceMany.QUERIES)

    def test_out_of_range_query_counts_one_miss(self, harness):
        with harness.client() as client:
            client.place("testbox", "RR_CORE", threads=4, seed=1)
            before = client.metrics()["registry"]
            with pytest.raises(ServiceError) as excinfo:
                client.place("testbox", "RR_CORE", threads=10_000, seed=1)
            after = client.metrics()["registry"]
        assert excinfo.value.code == "mctop_error"
        assert "service.place.index_misses" not in before
        assert after["service.place.index_misses"]["value"] == 1
        hits = "service.place.index_hits"
        assert after[hits]["value"] == before[hits]["value"]


class TestSplicedAnswers:
    """A memoized ``place`` document keeps its JSON, and the answer
    frame is spliced around it; it must equal ``encode_frame`` of the
    same response, byte for byte, for every query of the grid and every
    shape of client ``id``."""

    #: Frame ``id``s: absent, null, int, float, bool, a non-ASCII
    #: string, a nested list and a nested object.
    IDS = [{}, {"id": None}, {"id": 7}, {"id": 2.5}, {"id": True},
           {"id": "ünï\"cødé"}, {"id": [1, {"a": 2.5}]},
           {"id": {"k": [None, False, "x"]}}]

    def test_every_ivy_grid_query_and_id(self):
        import asyncio

        from repro.obs import Observability
        from repro.service.cache import InferenceCache
        from repro.service.handlers import Handlers, Session
        from repro.service.protocol import (
            EncodedDoc,
            decode_request,
            encode_frame,
            encode_response,
            ok_response,
        )

        topology = {"machine": "ivy", "seed": 1, "repetitions": 31}

        async def main() -> int:
            obs = Observability()
            handlers = Handlers(InferenceCache(obs=obs), obs)
            session = Session()
            await handlers.infer(dict(topology), session)
            key = handlers._inference_params(topology)[3]
            index = handlers.cache.get_memory(key)._placement_index
            n_chain = len(index._chain)
            checked = 0
            for policy, threads, sockets in sorted(index._entries):
                queries = [{"threads": threads, "sockets": sockets}]
                if sockets == n_chain:
                    queries.append({"threads": threads})
                for query in queries:
                    params = {**topology, "policy": policy, **query}
                    for _ in range(2):  # memoized, then a memo hit
                        result = await handlers.place(params, session)
                    assert type(result) is EncodedDoc
                    for extra in self.IDS:
                        request = decode_request(encode_frame(
                            {"verb": "place", "params": params, **extra}))
                        for parent in (None, "00ff00ff00ff00ff"):
                            response = ok_response(
                                request.id, result,
                                request_id="0123456789abcdef")
                            if parent is not None:
                                response["parent_request_id"] = parent
                            assert encode_response(response) == \
                                encode_frame(response), (params, extra)
                            checked += 1
            return checked

        checked = asyncio.run(main())
        assert checked > 16 * 480
