"""MctopClient's one connection and pipelining against a live daemon.

A client speaks over one lazily-opened connection, its daemon session,
and ``request_many`` pipelines frames over it relying on the daemon's
in-order responses.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceError


class TestPool:
    def test_pool_of_one_uses_one_connection(self, harness):
        """Every request of a client shares its one connection, and
        close() drops it."""
        client = harness.client()
        with client:
            for _ in range(6):
                client.ping()
            open_conns = client.metrics()["registry"][
                "service.connections.open"]["value"]
        assert open_conns == 1
        assert client._conn.sock is None


class TestRequestMany:
    def test_pipelined_responses_arrive_in_request_order(self, harness):
        frames = [
            {"machine": "testbox", "policy": "RR_CORE",
             "threads": n, "seed": 1}
            for n in (1, 2, 3, 4, 5, 6, 7, 8)
        ]
        with harness.client() as client:
            docs = client.request_many("place", frames, window=4)
        assert [d["n_threads"] for d in docs] == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_empty_list_is_a_no_op(self, harness):
        with harness.client() as client:
            assert client.request_many("ping", []) == []

    def test_window_validation(self, harness):
        with harness.client() as client:
            with pytest.raises(ValueError):
                client.request_many("ping", [{}], window=0)

    def test_error_mid_pipeline_raises_and_drops_the_socket(self, harness):
        frames = [
            {"machine": "testbox", "policy": "RR_CORE", "seed": 1},
            {"machine": "testbox", "policy": "NOPE", "seed": 1},
        ]
        with harness.client() as client:
            with pytest.raises(ServiceError):
                client.request_many("place", frames)
            # The connection was closed; the next request reconnects.
            assert isinstance(client.ping(), dict)


class TestBatchedPlaceMany:
    QUERIES = [
        {"policy": "RR_CORE", "threads": n} for n in (1, 2, 3, 4, 5)
    ] + [{"policy": "CON_HWC", "threads": 2}]

    def test_split_batches_merge_back_in_order(self, harness):
        with harness.client() as client:
            whole = client.place_many("testbox", self.QUERIES, seed=1)
            split = client.place_many("testbox", self.QUERIES, seed=1,
                                      batch=2)
        assert split["results"] == whole["results"]
        assert split["n_queries"] == whole["n_queries"] == len(self.QUERIES)
        assert split["key"] == whole["key"]

    def test_batch_validation(self, harness):
        with harness.client() as client:
            with pytest.raises(ValueError):
                client.place_many("testbox", self.QUERIES, seed=1, batch=0)
