"""PlacementIndex: byte-identity with :class:`Placement`.

The contract of the precomputed index is pinned here: for every golden
machine and every Table-2 policy, the indexed answer — ordering,
Figure-7 stats text *and* max latency — is byte-identical to what a
freshly constructed :class:`Placement` computes, across a sampled
``n_threads`` × ``n_sockets`` grid and on seeded random queries, and
every grid entry hashes to a recorded digest.  The facade helpers ride
along.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import json
import random
from pathlib import Path

import pytest

from repro.core.serialize import mctop_from_dict, save_mctop
from repro.errors import PlacementError
from repro.place import (
    ALL_POLICIES,
    Placement,
    PlacementIndex,
    Policy,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
GOLDEN_MACHINES = sorted(p.name[:-len(".json.gz")]
                         for p in GOLDEN_DIR.glob("*.json.gz"))


def golden_mctop(name: str):
    path = GOLDEN_DIR / f"{name}.json.gz"
    doc = json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))
    return mctop_from_dict(doc)


@pytest.fixture(scope="module")
def indexed():
    """name -> (mctop, built index), cached across the module."""
    cache: dict = {}

    def get(name: str):
        if name not in cache:
            mctop = golden_mctop(name)
            cache[name] = (mctop, PlacementIndex(mctop).build())
        return cache[name]

    return get


def sample_grid(mctop) -> list[tuple[int | None, int | None]]:
    """A small (n_threads, n_sockets) sample: the edges plus interior."""
    n = mctop.n_contexts
    pairs: list[tuple[int | None, int | None]] = [
        (None, None), (1, None), (2, None),
        (max(1, n // 3), None), (max(1, n // 2), None),
        (max(1, n - 1), None), (n, None),
    ]
    if mctop.n_sockets > 1:
        per = n // mctop.n_sockets
        pairs += [(1, 1), (per, 1), (max(1, per // 2), 1), (None, 1)]
    return sorted(set(pairs), key=str)


class TestByteIdentity:
    @pytest.mark.parametrize("name", GOLDEN_MACHINES)
    def test_indexed_equals_legacy_everywhere(self, indexed, name):
        mctop, index = indexed(name)
        checked = 0
        for policy in ALL_POLICIES:
            for nt, ns in sample_grid(mctop):
                try:
                    legacy = Placement(mctop, policy, nt, ns)
                except PlacementError:
                    # The machine cannot serve this configuration
                    # (POWER without RAPL, nt beyond a 1-socket cap,
                    # ...): the indexed path must refuse identically.
                    with pytest.raises(PlacementError):
                        index.get(policy, nt, ns)
                    continue
                result = index.get(policy, nt, ns)
                assert result.ordering == tuple(legacy.ordering), \
                    (name, policy, nt, ns)
                assert result.stats == legacy.print_stats(), \
                    (name, policy, nt, ns)
                assert result.max_latency == legacy.max_latency()
                assert result.n_threads == legacy.n_threads
                checked += 1
        assert checked > 0

    def test_grid_answers_come_from_the_index(self, indexed):
        _, index = indexed("testbox")
        assert index.prebuilt
        assert index.lookup(Policy.RR_CORE, 4) is not None
        assert index.lookup("CON_HWC") is not None  # defaults to capacity


class TestRandomQueries:
    """Seeded random queries, invalid ones included: the index answers
    what :class:`Placement` computes, or refuses with its message.
    These are the refusals ``mctopd``'s ``pool_switch`` takes from the
    index."""

    @pytest.mark.parametrize("name",
                             ["testbox", "unisock", "ivy", "opteron"])
    def test_get_matches_placement(self, indexed, name):
        mctop, index = indexed(name)
        rng = random.Random(f"index-vs-placement-{name}")
        refused = 0
        for _ in range(300):
            policy = rng.choice(ALL_POLICIES)
            nt = rng.choice([None, *range(mctop.n_contexts + 3)])
            ns = rng.choice([None, *range(mctop.n_sockets + 2)])
            try:
                legacy = Placement(mctop, policy, nt, ns)
            except PlacementError as exc:
                with pytest.raises(PlacementError) as refusal:
                    index.get(policy, nt, ns)
                assert str(refusal.value) == str(exc), (policy, nt, ns)
                refused += 1
                continue
            result = index.get(policy, nt, ns)
            assert result.policy == legacy.policy.value
            assert result.ordering == tuple(legacy.ordering), \
                (policy, nt, ns)
            assert result.max_latency == legacy.max_latency()
            assert result.stats == legacy.print_stats(), (policy, nt, ns)
        assert 0 < refused < 300


#: sha256 over every grid key's ``(ordering, max_latency, stats)`` per
#: golden machine, recorded before the index and ``Placement`` shared
#: the Figure-7 aggregates: an oracle that does not run the code under
#: test.
INDEX_DIGESTS = {
    "clusterix":
        "bed0388ff1487c5bb593f728c0e4e5f504651e24c8392a24b4c9f271c3dcd92e",
    "haswell":
        "c995249f1013868ecac5cd0250792ad53fd7b5f8885bc0caa085f33dfb04f5cf",
    "ivy":
        "4fa831d0760e09e94e5ecc5728420b923e43e0ef47aad5233a132d7ab139bd16",
    "opteron":
        "bff510b46f0992a0a7f1c3a053710aa3c4ff7c6be2a6e1b92c64e3b1cae55c99",
    "sparc":
        "a2f215889aba830e191efb383ae4bfba0ccfc374dd7abf404c6eee6012d30a1a",
    "testbox":
        "752c8c16ab20e60974b7797ab1aa22ae485c7affff0e6c7ef41d0251bab93244",
    "unisock":
        "d5d44e6424329f79a1263c054f83cff8bace951395794f5b6fe858e3ebea5b58",
    "westmere":
        "96f03e985c890af26e60b4c7d45b51f7f9126c6b36f4d3897a5e55690dac3553",
}


class TestIndexDigests:
    def test_every_golden_machine_has_a_digest(self):
        assert sorted(INDEX_DIGESTS) == GOLDEN_MACHINES

    @pytest.mark.parametrize("name", GOLDEN_MACHINES)
    def test_grid_bytes_are_unchanged(self, name):
        index = PlacementIndex(golden_mctop(name)).build()
        digest = hashlib.sha256()
        for policy, nt, ns in sorted(index._entries):
            result = index.lookup(policy, nt, ns)
            digest.update(json.dumps([
                policy, nt, ns, list(result.ordering), result.max_latency,
                result.stats,
            ]).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == INDEX_DIGESTS[name]


class TestLazyStats:
    """The build stores orderings and max latencies only; an entry's
    stats block is rendered on its key's first lookup, once."""

    @pytest.mark.parametrize("name", GOLDEN_MACHINES)
    def test_every_grid_key_renders_the_eager_bytes(self, name):
        mctop = golden_mctop(name)
        index = PlacementIndex(mctop).build()
        keys = list(index._entries)
        assert keys
        for policy, nt, ns in keys:
            result = index.lookup(policy, nt, ns)
            eager = Placement._from_ordering(
                mctop, policy, result.ordering, result.max_latency
            ).print_stats()
            assert result.stats == eager, (name, policy, nt, ns)
        # The grid is every valid query: a policy the machine serves
        # has every thread count up to each socket prefix's capacity,
        # one thread more is refused the way Placement refuses it, and
        # a policy it cannot serve has no entries and is refused too.
        for policy in ALL_POLICIES:
            served = any(key[0] == policy.value for key in keys)
            for ns, capacity in index._capacity.items():
                for nt in range(1, capacity + 1):
                    hit = index.lookup(policy, nt, ns)
                    assert (hit is not None) == served, (policy, nt, ns)
                with pytest.raises(PlacementError):
                    index.get(policy, capacity + 1, ns)
            if not served:
                with pytest.raises(PlacementError):
                    index.get(policy)

    def test_build_renders_nothing_and_each_key_renders_once(
            self, monkeypatch):
        # ``repro.place`` the attribute is the facade function, so
        # the submodule comes from the import system.
        index_module = importlib.import_module("repro.place.index")

        rendered = []
        real = index_module.render_stats

        def counting(mctop, policy, ordering, **kwargs):
            rendered.append((policy.value, len(ordering)))
            return real(mctop, policy, ordering, **kwargs)

        monkeypatch.setattr(index_module, "render_stats", counting)
        index = PlacementIndex(golden_mctop("opteron")).build()
        assert index.n_entries == 2376
        assert rendered == []
        # One prefix-sliced policy and one that stores its ordering.
        for policy in ("RR_CORE", "BALANCE_CORE"):
            first = index.lookup(policy, 8)
            second = index.lookup(policy, 8)
            assert rendered[-1] == (policy, 8)
            assert second.stats is first.stats
        assert len(rendered) == 2


class TestLookupSemantics:
    def test_defaults_mean_full_capacity(self, indexed):
        mctop, index = indexed("testbox")
        full = index.lookup("CON_HWC")
        assert full is not None
        assert full.n_threads == mctop.n_contexts

    def test_out_of_range_misses(self, indexed):
        mctop, index = indexed("testbox")
        assert index.lookup("CON_HWC", mctop.n_contexts + 1) is None
        assert index.lookup("CON_HWC", 4, mctop.n_sockets + 1) is None
        assert index.lookup("CON_HWC", 0) is None

    def test_get_miss_raises_like_legacy(self, indexed):
        mctop, index = indexed("testbox")
        with pytest.raises(PlacementError, match="contexts"):
            index.get("RR_CORE", mctop.n_contexts + 42)

    def test_unknown_policy(self, indexed):
        _, index = indexed("testbox")
        with pytest.raises((PlacementError, ValueError)):
            index.get("NOT_A_POLICY", 4)

    @pytest.mark.parametrize("name", GOLDEN_MACHINES)
    def test_over_capacity_is_refused_from_the_grid(self, name, indexed,
                                                    monkeypatch):
        """More threads than a served policy offers on its sockets is
        refused with ``Placement``'s message, and no ordering is
        computed to find that out."""
        mctop, index = indexed(name)
        policies_module = importlib.import_module("repro.place.policies")
        served = sorted({key[0] for key in index._entries})
        queries = [
            (policy, capacity + extra, ns)
            for policy in served
            for ns, capacity in [(None, mctop.n_contexts),
                                 *index._capacity.items()]
            for extra in (1, 1000)
        ]
        calls = []
        real = policies_module._order_for
        monkeypatch.setattr(
            policies_module, "_order_for",
            lambda *args: calls.append(args) or real(*args))
        refused = []
        for query in queries:
            with pytest.raises(PlacementError) as exc:
                index.get(*query)
            refused.append(str(exc.value))
        assert calls == []
        for query, message in zip(queries, refused):
            with pytest.raises(PlacementError) as exc:
                Placement(mctop, *query)
            assert message == str(exc.value), (name, query)
            assert "contexts," in message

    def test_placement_is_pinnable(self, indexed):
        _, index = indexed("testbox")
        placement = index.placement("RR_CORE", 4)
        assert isinstance(placement, Placement)
        thread = placement.pin()
        assert thread.ctx in placement.ordering
        assert placement.pinned_contexts() == [thread.ctx]
        assert placement.max_latency() == index.get("RR_CORE", 4).max_latency


class TestMctopIntegration:
    def test_placement_index_is_cached_on_the_mctop(self):
        mctop = golden_mctop("testbox")
        index = mctop.placement_index()
        assert index.prebuilt
        assert mctop.placement_index() is index


class TestFacade:
    def test_place_answers_from_the_index(self):
        from repro import PlacementResult, place

        mctop = golden_mctop("testbox")
        result = place(mctop, "RR_CORE", 4)
        assert isinstance(result, PlacementResult)
        legacy = Placement(mctop, Policy.RR_CORE, 4)
        assert result.ordering == tuple(legacy.ordering)
        assert result.stats == legacy.print_stats()

    def test_place_accepts_a_description_path(self, tmp_path):
        from repro import place

        mctop = golden_mctop("testbox")
        mct = tmp_path / "tb.mct.gz"
        save_mctop(mctop, mct)
        assert place(str(mct), "RR_CORE", 4).ordering \
            == place(mctop, "RR_CORE", 4).ordering

    def test_place_rejects_nonsense(self):
        from repro import place
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            place(12345)

    def test_place_many_matches_singles(self):
        from repro import place, place_many

        mctop = golden_mctop("testbox")
        queries = [
            {"policy": "RR_CORE", "n_threads": 4},
            {"policy": "CON_HWC", "threads": 2},    # wire alias
            {"policy": "BALANCE_CORE", "n_threads": 6},
        ]
        batch = place_many(mctop, queries)
        assert len(batch) == 3
        singles = [
            place(mctop, "RR_CORE", 4),
            place(mctop, "CON_HWC", 2),
            place(mctop, "BALANCE_CORE", 6),
        ]
        assert batch == singles

    def test_module_and_function_coexist(self):
        # ``repro.place`` the subpackage and ``repro.place`` the facade
        # helper share a name; the package attribute is the callable,
        # while submodule imports keep resolving through sys.modules.
        import sys

        import repro

        assert callable(repro.place)
        assert sys.modules["repro.place"].Policy is Policy
        from repro.place import Policy as imported_policy

        assert imported_policy is Policy
