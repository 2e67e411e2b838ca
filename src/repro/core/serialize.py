"""MCTOP description files (the ``.mct`` format).

libmctop runs the expensive inference once and stores the result in a
description file which later runs simply load (Section 2).  We store a
versioned JSON document: human-inspectable, diff-able, and forward
compatible (unknown keys are ignored on load).
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import numpy as np

from repro.errors import SerializationError
from repro.core.mctop import Mctop, Provenance
from repro.core.structures import (
    CacheInfo,
    HwContext,
    HwcGroup,
    InterconnectLink,
    LatencyCluster,
    MemoryNode,
    PowerInfo,
    SocketData,
    TopologyLevel,
)

FORMAT_VERSION = 1


def _intkeys(d: dict) -> dict:
    return {int(k): v for k, v in d.items()}


def mctop_to_dict(mctop: Mctop) -> dict:
    """Serialize a topology to plain JSON-compatible data."""
    return {
        "format": "mctop-description",
        "version": FORMAT_VERSION,
        "name": mctop.name,
        "has_smt": mctop.has_smt,
        "smt_per_core": mctop.smt_per_core,
        "provenance": vars(mctop.provenance),
        "contexts": [vars(c) for c in mctop.contexts.values()],
        "groups": [vars(g) for g in mctop.groups.values()],
        "sockets": [vars(s) for s in mctop.sockets.values()],
        "nodes": [vars(n) for n in mctop.nodes.values()],
        "links": [vars(l) for l in mctop.links.values()],
        "levels": [vars(lv) for lv in mctop.levels],
        "clusters": [vars(c) for c in mctop.clusters],
        "lat_table": mctop.lat_table.tolist(),
        "cache_info": vars(mctop.cache_info) if mctop.cache_info else None,
        "power_info": vars(mctop.power_info) if mctop.power_info else None,
    }


def mctop_from_dict(data: dict) -> Mctop:
    """Rebuild a topology from serialized data."""
    try:
        if data.get("format") != "mctop-description":
            raise SerializationError("not an MCTOP description document")
        if data.get("version", 0) > FORMAT_VERSION:
            raise SerializationError(
                f"description version {data['version']} is newer than this "
                f"library supports ({FORMAT_VERSION})"
            )
        contexts = {c["id"]: HwContext(**c) for c in data["contexts"]}
        groups = {}
        for g in data["groups"]:
            g = dict(g)
            g["children"] = tuple(g["children"])
            g["contexts"] = tuple(g["contexts"])
            groups[g["id"]] = HwcGroup(**g)
        sockets = {}
        for s in data["sockets"]:
            s = dict(s)
            s["mem_latencies"] = _intkeys(s.get("mem_latencies", {}))
            s["mem_bandwidths"] = _intkeys(s.get("mem_bandwidths", {}))
            s["mem_bandwidths_single"] = _intkeys(
                s.get("mem_bandwidths_single", {})
            )
            sockets[s["id"]] = SocketData(**s)
        nodes = {n["id"]: MemoryNode(**n) for n in data["nodes"]}
        links = {}
        for l in data["links"]:
            link = InterconnectLink(**l)
            links[(link.socket_a, link.socket_b)] = link
        levels = tuple(
            TopologyLevel(
                level=lv["level"],
                latency=lv["latency"],
                component_ids=tuple(lv["component_ids"]),
                role=lv.get("role", "group"),
            )
            for lv in data["levels"]
        )
        clusters = tuple(LatencyCluster(**c) for c in data["clusters"])
        cache_info = None
        if data.get("cache_info"):
            ci = dict(data["cache_info"])
            ci["levels"] = tuple(ci.get("levels", ()))
            ci["latencies"] = _intkeys(ci.get("latencies", {}))
            ci["sizes_kib"] = _intkeys(ci.get("sizes_kib", {}))
            ci["os_sizes_kib"] = _intkeys(ci.get("os_sizes_kib", {}))
            cache_info = CacheInfo(**ci)
        power_info = PowerInfo(**data["power_info"]) if data.get("power_info") else None
        prov_data = dict(data.get("provenance", {}))
        provenance = Provenance(**prov_data) if prov_data else Provenance()
        return Mctop(
            name=data["name"],
            contexts=contexts,
            groups=groups,
            sockets=sockets,
            nodes=nodes,
            links=links,
            levels=levels,
            clusters=clusters,
            lat_table=np.array(data["lat_table"], dtype=float),
            has_smt=data["has_smt"],
            smt_per_core=data["smt_per_core"],
            cache_info=cache_info,
            power_info=power_info,
            provenance=provenance,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed MCTOP description: {exc}") from exc


#: The two magic bytes every gzip stream starts with.
_GZIP_MAGIC = b"\x1f\x8b"


def save_mctop(mctop: Mctop, path: str | Path) -> Path:
    """Write a description file; returns the path written.

    A ``.gz`` suffix anywhere in the name (``.mct.gz``, ``.json.gz``)
    selects gzip compression — an order of magnitude smaller for the
    big machines, which keeps the service's on-disk store compact.
    The stream is written with ``mtime=0`` so identical topologies
    produce byte-identical files.
    """
    path = Path(path)
    payload = json.dumps(mctop_to_dict(mctop), indent=1).encode("utf-8")
    if ".gz" in path.suffixes:
        # fileobj + mtime=0 keeps the stream free of the filename and
        # timestamp, so identical topologies are byte-identical files.
        with open(path, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, filename="", mode="wb",
                               mtime=0) as fh:
                fh.write(payload)
    else:
        path.write_bytes(payload)
    return path


def load_mctop(path: str | Path) -> Mctop:
    """Load a topology from a description file.

    Compression is detected from the file's magic bytes (not its
    name), so a renamed ``.mct.gz`` still loads.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
        if raw[:2] == _GZIP_MAGIC:
            raw = gzip.decompress(raw)
        data = json.loads(raw.decode("utf-8"))
    except (OSError, gzip.BadGzipFile, EOFError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    mctop = mctop_from_dict(data)
    mctop.provenance.inferred = False
    return mctop
