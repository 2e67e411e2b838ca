"""MctopClient pooling and pipelining against a live daemon.

The redesigned client speaks through a lazily-opened connection pool:
stateless verbs round-robin across it, stateful verbs (``pool_switch``)
stay pinned to connection 0 so session state is coherent, and
``request_many`` pipelines frames over one socket relying on the
daemon's in-order responses.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service import MctopClient


def pooled_client(harness, pool_size: int, **kwargs) -> MctopClient:
    return MctopClient(unix_path=harness.config.unix_path,
                       pool_size=pool_size, timeout=30.0, **kwargs)


class TestPool:
    def test_stateless_verbs_fan_out_across_the_pool(self, harness):
        with pooled_client(harness, 3) as client:
            for _ in range(6):
                client.ping()
            open_conns = client.metrics()["registry"][
                "service.connections.open"]["value"]
        assert open_conns == 3

    def test_pool_of_one_uses_one_connection(self, harness):
        with harness.client() as client:
            for _ in range(6):
                client.ping()
            open_conns = client.metrics()["registry"][
                "service.connections.open"]["value"]
        assert open_conns == 1

    def test_stateful_verbs_stay_on_connection_zero(self, harness):
        # Daemon sessions are per connection: if pool_switch round-
        # robined, each call would land in a fresh session and pool_len
        # would stay 1.  Pinned to connection 0, the pool accumulates.
        with pooled_client(harness, 3) as client:
            lens = [
                client.pool_switch("testbox", policy, threads=4,
                                   seed=1)["pool_len"]
                for policy in ("CON_HWC", "RR_CORE", "BALANCE_CORE")
            ]
        assert lens == [1, 2, 3]

    def test_pool_size_validation(self, harness):
        with pytest.raises(ValueError):
            pooled_client(harness, 0)

    def test_compat_shim_exposes_connection_zero(self, harness):
        """Connection 0 opens lazily, and close() drops it."""
        client = harness.client()
        assert client._conns[0] is None
        with client:
            assert client._conns[0].sock is not None
            assert client._conns[0].file is not None
        assert client._conns[0].sock is None  # close() drops the pool


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
