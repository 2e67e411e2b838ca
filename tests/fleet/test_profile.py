"""Fleet-wide profiling: the router fans ``profile`` out to every
member and merges the member snapshots into one document.

The acceptance scenario: members run with ``--profile``; a routed
infer's fleet-wide request id (the one the router's exemplars and
``mctop top`` print) resolves a per-request flamegraph on the member
that actually burned the CPU, through the ``parent_request_id`` alias.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ServiceError

BASE = dict(machine="testbox", seed=1, repetitions=101)

PROFILED = {"profile": True, "profile_hz": 400.0}


def _wait_for_samples(client, minimum: int = 1, timeout: float = 10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        doc = client.profile()
        if doc["samples"] >= minimum:
            return doc
        time.sleep(0.05)
    raise AssertionError(f"fleet never reached {minimum} samples")


class TestFleetProfileMerge:
    def test_router_merges_member_snapshots(self, fleet_factory):
        fleet = fleet_factory(member_overrides=PROFILED)
        with fleet.client() as client:
            client.request("infer", **BASE)
            doc = _wait_for_samples(client)
        assert doc["enabled"] is True
        assert set(doc["members"]) == {"m0", "m1", "m2"}
        for stanza in doc["members"].values():
            assert stanza["enabled"] is True
            assert stanza["hz"] == 400.0
        assert doc["samples"] == sum(
            stanza["samples"] for stanza in doc["members"].values()
        )
        # merged stacks carry the per-member count breakdown
        assert doc["stacks"]
        for entry in doc["stacks"]:
            assert sum(entry["members"].values()) == entry["count"]
            assert set(entry["members"]) <= {"m0", "m1", "m2"}

    def test_fleet_wide_request_id_resolves_on_owner_member(
        self, fleet_factory
    ):
        fleet = fleet_factory(member_overrides=PROFILED)
        with fleet.client() as client:
            client.request("infer", **BASE)
            # the id the *router* handed back — not the member-local one
            rid = client.last_request_id
            _wait_for_samples(client)
            doc = client.profile(request_id=rid)
        assert doc["request_id"] == rid
        assert doc["found"] is True
        assert doc["stacks"]
        # exactly the serving member contributed the request's stacks
        contributors = {
            member
            for entry in doc["stacks"]
            for member in entry["members"]
        }
        assert len(contributors) == 1

    def test_verb_filter_fans_out(self, fleet_factory):
        fleet = fleet_factory(member_overrides=PROFILED)
        with fleet.client() as client:
            client.request("infer", **BASE)
            _wait_for_samples(client)
            doc = client.profile(verb="infer")
        assert all(e["verb"] == "infer" for e in doc["stacks"])

    def test_reset_fans_out_to_all_members(self, fleet_factory):
        fleet = fleet_factory(member_overrides=PROFILED)
        with fleet.client() as client:
            client.request("infer", **BASE)
            _wait_for_samples(client)
            client.profile(action="reset")
        for member in ("m0", "m1", "m2"):
            with fleet.member_client(member) as direct:
                assert direct.profile()["samples"] < 50

    def test_unprofiled_fleet_reports_disabled(self, fleet):
        with fleet.client() as client:
            doc = client.profile()
        assert doc["enabled"] is False
        assert doc["samples"] == 0
        assert all(stanza["enabled"] is False
                   for stanza in doc["members"].values())

    def test_bad_params_rejected_at_router(self, fleet):
        with fleet.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.profile(request_id="x" * 65)
        assert excinfo.value.code == "invalid_params"


#: (verb, params) the daemon refuses as invalid_params; the router
#: validates the same params before it fans out.
BAD_PARAMS = [
    ("profile", {"action": "bogus"}),
    ("profile", {"verb": ""}),
    ("profile", {"verb": 7}),
    ("profile", {"request_id": ""}),
    ("profile", {"request_id": "x" * 65}),
    ("profile", {"request_id": 7}),
    ("profile", {"limit": "lots"}),
    ("profile", {"limit": True}),
    ("profile", {"limit": 2.5}),
    ("profile", {"limit": None}),
    ("profile", {"limit": 0}),
    ("profile", {"limit": 5001}),
    ("trace", {}),
    ("trace", {"request_id": ""}),
    ("trace", {"request_id": "x" * 65}),
    ("trace", {"request_id": 7}),
]


def test_router_refuses_bad_params_as_the_daemon_does(fleet):
    """One validator per verb: for every bad value the router and a
    member answer invalid_params with the same message."""
    def refusal(client, verb, params):
        with pytest.raises(ServiceError) as excinfo:
            client.request(verb, **params)
        return excinfo.value.code, str(excinfo.value)

    with fleet.client() as router, fleet.member_client("m0") as member:
        for verb, params in BAD_PARAMS:
            want = refusal(member, verb, params)
            assert want[0] == "invalid_params", (verb, params)
            assert refusal(router, verb, params) == want, (verb, params)
