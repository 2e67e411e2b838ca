"""The content-addressed inference cache and single-flight dedup."""

from __future__ import annotations

import asyncio
import hashlib
import importlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import (
    InferenceConfig,
    LatencyTableConfig,
    infer_topology,
)
from repro.hardware import get_machine
from repro.service.cache import (
    KEY_FORMAT_VERSION,
    InferenceCache,
    SingleFlight,
    inference_key,
)
from repro.service.handlers import TopologyParamsMemo, parse_inference_params

TABLE = LatencyTableConfig(repetitions=9)


def reference_key(machine, seed, table=None) -> str:
    """The digest of the canonical JSON, worked out on every call."""
    table = table or LatencyTableConfig()
    doc = {
        "format": "mctop-inference-key",
        "version": KEY_FORMAT_VERSION,
        "machine": machine,
        "seed": int(seed),
        "table": table.cache_key_dict(),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def testbox_mctop():
    return infer_topology(
        get_machine("testbox"), seed=1, config=InferenceConfig(table=TABLE)
    )


class TestInferenceKey:
    def test_deterministic(self):
        assert inference_key("ivy", 1, TABLE) == inference_key("ivy", 1, TABLE)

    def test_sensitive_to_every_input(self):
        base = inference_key("ivy", 1, TABLE)
        assert inference_key("opteron", 1, TABLE) != base
        assert inference_key("ivy", 2, TABLE) != base
        assert inference_key(
            "ivy", 1, LatencyTableConfig(repetitions=10)
        ) != base
        # Non-repetition knobs are part of the address too.
        assert inference_key(
            "ivy", 1, LatencyTableConfig(repetitions=9, stdev_threshold=0.08)
        ) != base

    def test_is_hex_digest(self):
        key = inference_key("ivy", 1)
        assert len(key) == 64
        assert int(key, 16) >= 0

    def test_equal_configs_of_other_types_keep_their_own_digest(self):
        """``1``/``True`` configs are equal and hash alike; the memo must
        not hand one the other's digest."""
        one = LatencyTableConfig(warm_up=1)
        true = LatencyTableConfig(warm_up=True)
        assert one == true and hash(one) == hash(true)
        assert inference_key("ivy", 1, one) == reference_key("ivy", 1, one)
        assert inference_key("ivy", 1, true) == reference_key("ivy", 1, true)
        assert inference_key("ivy", 1, one) != inference_key("ivy", 1, true)

    def test_long_inputs_are_digested_but_never_memoized(self):
        """The params come from clients and a frame may be 16 MiB, so
        params that print long are resolved every time and never kept
        by the daemon's or the router's memo: a few hundred such frames
        must not stay in memory."""
        long_machine = "m" * (2 << 20)
        # JSON reads integers of up to 4300 digits; a string floor is
        # refused by the config.
        long_floor = {"repetitions": 9, "stdev_floor": int("9" * 4000)}
        memo = TopologyParamsMemo()
        for params in ({"machine": long_machine, "seed": 1,
                        "table": TABLE.to_dict()},
                       {"machine": "ivy", "seed": 1, "table": long_floor}):
            machine, seed, table, key = memo.resolve(params)
            assert key == reference_key(machine, seed, table)
            assert memo.resolve(params)[3] == key
        assert len(memo._memo) == 0
        assert inference_key(long_machine, 1, TABLE) \
            == reference_key(long_machine, 1, TABLE)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(history=st.lists(st.tuples(
        st.sampled_from(("ivy", "opteron")),
        st.sampled_from((0, 1, True)),
        st.sampled_from((1, True)),
        st.sampled_from((3, 3.0)),
        st.sampled_from((0.0, -0.0)),
        st.sampled_from((1, 4)),
        st.sampled_from(("auto", "pair")),
    ), min_size=1, max_size=30))
    def test_memo_matches_the_unmemoized_digest(self, history):
        """Histories of params that are equal but typed differently, in
        any order, through one memo: every answer is the reference
        digest of what the parse makes of the params."""
        memo = TopologyParamsMemo()
        for machine, seed, warm_up, floor, discard, jobs, sampling \
                in history:
            params = {"machine": machine, "seed": seed, "table": {
                "repetitions": 9, "warm_up": warm_up, "stdev_floor": floor,
                "max_discard_fraction": discard, "jobs": jobs,
                "sampling": sampling,
            }}
            try:
                want = parse_inference_params(params)
            except Exception as exc:
                with pytest.raises(type(exc)) as excinfo:
                    memo.resolve(params)
                assert str(excinfo.value) == str(exc)
                continue
            machine, seed, table, key = memo.resolve(params)
            assert repr((machine, seed, table)) == repr(want)
            assert key == reference_key(*want)
        assert len(memo._memo) <= TopologyParamsMemo.MAX_ENTRIES


class TestInferenceCache:
    def test_miss_then_memory_hit(self, testbox_mctop):
        cache = InferenceCache()
        key = inference_key("testbox", 1, TABLE)
        assert cache.get(key) is None
        cache.put(key, testbox_mctop)
        assert cache.get(key) is testbox_mctop
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits_memory"] == 1

    def test_disk_tier_survives_memory_clear(self, testbox_mctop, tmp_path):
        cache = InferenceCache(store_dir=tmp_path / "store")
        key = inference_key("testbox", 1, TABLE)
        cache.put(key, testbox_mctop)
        assert (tmp_path / "store" / f"{key}.mct.gz").is_file()
        cache.clear()
        assert len(cache) == 0
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.name == testbox_mctop.name
        assert loaded.n_contexts == testbox_mctop.n_contexts
        assert cache.stats()["hits_disk"] == 1
        # The disk hit was promoted back into memory.
        assert cache.get(key) is loaded

    def test_lru_eviction(self, testbox_mctop):
        cache = InferenceCache(max_memory_entries=2)
        cache.put("a", testbox_mctop)
        cache.put("b", testbox_mctop)
        assert cache.get("a") is not None  # refresh a; b is now oldest
        cache.put("c", testbox_mctop)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats()["evictions"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, testbox_mctop, tmp_path):
        cache = InferenceCache(store_dir=tmp_path)
        key = inference_key("testbox", 1, TABLE)
        (tmp_path / f"{key}.mct.gz").write_bytes(b"\x1f\x8b not really gzip")
        assert cache.get(key) is None
        # put() repairs the corrupt entry.
        cache.put(key, testbox_mctop)
        cache.clear()
        assert cache.get(key) is not None

    def test_put_async_writes_like_put(self, testbox_mctop, tmp_path):
        cache = InferenceCache(store_dir=tmp_path / "store")
        key = inference_key("testbox", 1, TABLE)
        asyncio.run(cache.put_async(key, testbox_mctop))
        assert cache.get(key) is testbox_mctop
        assert cache.obs.registry.value("service.cache.disk_writes") == 1
        cache.clear()
        assert cache.get(key).n_contexts == testbox_mctop.n_contexts

    def test_two_writes_of_one_digest_never_share_a_temporary_file(
            self, testbox_mctop, tmp_path, monkeypatch):
        """Store writes run in worker threads, so a drift baseline and a
        client's infer (or two daemons on one store) can write the same
        digest at once: each write goes through its own file."""
        cache_module = importlib.import_module("repro.service.cache")
        written = []
        real_save = cache_module.save_mctop

        def recording_save(mctop, path):
            written.append(Path(path))
            return real_save(mctop, path)

        monkeypatch.setattr(cache_module, "save_mctop", recording_save)
        cache = InferenceCache(store_dir=tmp_path)
        key = inference_key("testbox", 1, TABLE)
        cache.put(key, testbox_mctop)
        cache.put(key, testbox_mctop)
        assert len(set(written)) == 2
        assert all(p.parent == tmp_path for p in written)
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.mct.gz"]


class TestSingleFlight:
    def test_concurrent_callers_share_one_run(self):
        async def main():
            sf = SingleFlight()
            runs = 0

            async def work():
                nonlocal runs
                runs += 1
                await asyncio.sleep(0.05)
                return object()

            results = await asyncio.gather(
                *(sf.run("k", work) for _ in range(5))
            )
            assert runs == 1
            assert all(r is results[0] for r in results)
            reg = sf.obs.registry
            assert reg.value("service.singleflight.leaders") == 1
            assert reg.value("service.singleflight.coalesced") == 4
            assert sf.inflight_keys() == []

        asyncio.run(main())

    def test_distinct_keys_run_independently(self):
        async def main():
            sf = SingleFlight()
            seen = []

            def work_for(key):
                async def work():
                    seen.append(key)
                    return key

                return work

            results = await asyncio.gather(
                sf.run("a", work_for("a")), sf.run("b", work_for("b"))
            )
            assert sorted(seen) == ["a", "b"]
            assert sorted(results) == ["a", "b"]

        asyncio.run(main())

    def test_exception_propagates_to_all_waiters(self):
        async def main():
            sf = SingleFlight()

            async def boom():
                await asyncio.sleep(0.01)
                raise RuntimeError("inference failed")

            results = await asyncio.gather(
                *(sf.run("k", boom) for _ in range(3)),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)
            # The failed run is not pinned; a retry starts fresh.
            async def ok():
                return 42

            assert await sf.run("k", ok) == 42

        asyncio.run(main())
