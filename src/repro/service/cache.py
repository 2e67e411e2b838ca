"""Content-addressed inference cache + single-flight deduplication.

The paper's measure-once/serve-many shape (Sections 5-6): MCTOP-ALG is
expensive, its result is immutable for a given ``(machine, seed,
measurement configuration)``, so ``mctopd`` addresses cached topologies
by the SHA-256 digest of exactly that triple.  Two tiers sit in front
of the algorithm:

* an in-memory LRU of live :class:`~repro.core.mctop.Mctop` objects;
* an on-disk store of ``<digest>.mct.gz`` description files, shared by
  every daemon pointed at the same directory (like a ``likwid-topology``
  output directory).

:class:`SingleFlight` coalesces concurrent requests: N clients asking
for the same uncached topology trigger exactly one MCTOP-ALG run, the
other N-1 await the leader's result.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import uuid
from collections import OrderedDict
from pathlib import Path

from repro.core.algorithm.lat_table import LatencyTableConfig
from repro.core.mctop import Mctop
from repro.core.serialize import load_mctop, save_mctop
from repro.errors import SerializationError
from repro.obs import Observability
from repro.service.context import current_request_id

KEY_FORMAT_VERSION = 2


def inference_key(
    machine: str, seed: int, table: LatencyTableConfig | None = None
) -> str:
    """The content address of one inference run.

    A SHA-256 digest over the canonical JSON of the machine name, the
    seed and every *semantic* knob of the :class:`LatencyTableConfig`
    (its :meth:`~LatencyTableConfig.cache_key_dict`) — the full set of
    inputs that determine the inferred topology.  Any semantic config
    change (even a changed spurious-sample threshold) yields a new
    address, so a store can never serve a stale topology for a new
    configuration; execution-only knobs (``vectorized``, ``jobs``) are
    excluded because they cannot change a bit of the result, so a
    topology inferred with ``jobs=8`` serves a ``jobs=1`` request.

    Configs holding ``1`` and ``True``, ``3`` and ``3.0``, or ``0.0``
    and ``-0.0`` are equal, yet their canonical JSON, and so their
    digest, differs.  The daemon and the router, which need a key on
    every frame, memoize it per raw request params
    (:class:`~repro.service.handlers.TopologyParamsMemo`).
    """
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


def _write_store_file(path: Path, mctop: Mctop) -> None:
    """Write one store entry.  Write-then-rename, so a concurrent reader
    never sees a partially written description file; the temporary name
    is unique, so two writers of one digest (two daemons sharing the
    store, or a drift baseline landing beside a client's infer) never
    write into the same temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp.gz")
    save_mctop(mctop, tmp)
    tmp.replace(path)


class InferenceCache:
    """Memory LRU in front of an optional on-disk ``.mct.gz`` store."""

    def __init__(
        self,
        store_dir: str | Path | None = None,
        max_memory_entries: int = 32,
        obs: Observability | None = None,
        events: "EventLog | None" = None,
    ):
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.max_memory_entries = max_memory_entries
        self.obs = obs or Observability()
        #: Optional structured event log; evictions are emitted to it.
        self.events = events
        self._memory: OrderedDict[str, Mctop] = OrderedDict()

    # ------------------------------------------------------------ lookup
    def _disk_path(self, key: str) -> Path | None:
        if self.store_dir is None:
            return None
        return self.store_dir / f"{key}.mct.gz"

    def get(self, key: str, record: bool = True) -> Mctop | None:
        """Memory first, then disk (promoting a disk hit to memory).

        ``record=False`` skips the hit/miss counters — used by the
        fleet ``cache_fetch`` verb, whose peer probes are not client
        traffic and must not skew the cache-hit ratio.  A memory miss
        blocks for as long as loading the store file takes (tens of
        milliseconds for the big machines); on an event loop use
        :meth:`get_async`.
        """
        mctop = self.get_memory(key, record)
        if mctop is None:
            mctop = self._loaded(key, *self._read_store(key), record)
        return mctop

    async def get_async(self, key: str, record: bool = True) -> Mctop | None:
        """:meth:`get` for the daemon's event loop: a memory hit is
        answered on the loop, a store file is loaded in a worker
        thread, so the loop keeps answering frames while it loads."""
        mctop = self.get_memory(key, record)
        if mctop is None:
            found = await asyncio.to_thread(self._read_store, key)
            mctop = self._loaded(key, *found, record)
        return mctop

    def get_memory(self, key: str, record: bool = True) -> Mctop | None:
        """The memory tier alone; a hit counts, a miss does not (the
        caller goes on to the store, which counts the outcome)."""
        mctop = self._memory.get(key)
        if mctop is not None:
            self._memory.move_to_end(key)
            if record:
                self.obs.counter("service.cache.hits.memory").inc()
        return mctop

    def _read_store(self, key: str) -> tuple[Mctop | None, bool]:
        """``(topology or None, corrupt)`` from the store file.  Blocking
        and free of side effects, so it can run in a worker thread."""
        path = self._disk_path(key)
        if path is None or not path.is_file():
            return None, False
        try:
            return load_mctop(path), False
        except SerializationError:
            return None, True

    def _loaded(self, key: str, mctop: Mctop | None, corrupt: bool,
                record: bool) -> Mctop | None:
        """Count a store read's outcome and promote a hit to memory."""
        if corrupt:
            # A truncated/corrupt store entry is treated as a miss; the
            # fresh result will overwrite it.
            self.obs.counter("service.cache.disk_corrupt").inc()
        if record:
            self.record_store_lookup(mctop is not None)
        if mctop is not None:
            self._insert_memory(key, mctop)
        return mctop

    def record_store_lookup(self, hit: bool) -> None:
        """Count one lookup that went past the memory tier: a store hit
        or a miss of both tiers."""
        self.obs.counter(
            "service.cache.hits.disk" if hit else "service.cache.misses"
        ).inc()

    def put(self, key: str, mctop: Mctop) -> None:
        """Insert into the memory LRU, then write the store file.

        The write blocks for as long as serializing, compressing and
        writing the topology take (tens of milliseconds for the big
        machines); on an event loop use :meth:`put_async`.
        """
        self._insert_memory(key, mctop)
        path = self._disk_path(key)
        if path is not None:
            _write_store_file(path, mctop)
            self.obs.counter("service.cache.disk_writes").inc()

    async def put_async(self, key: str, mctop: Mctop) -> None:
        """:meth:`put` for the daemon's event loop: the memory insert
        runs on the loop, the store write in a worker thread, so the
        loop keeps answering frames while the file is written."""
        self._insert_memory(key, mctop)
        path = self._disk_path(key)
        if path is not None:
            await asyncio.to_thread(_write_store_file, path, mctop)
            self.obs.counter("service.cache.disk_writes").inc()

    def ensure_index(self, key: str, mctop: Mctop) -> "PlacementIndex":
        """The topology's placement index, built from it on first need
        (timed and counted; the index is never written to the store).

        Blocking — run it in a worker thread from the daemon.  The
        fast path (index already built) is one attribute check.
        Idempotent: re-putting the same digest (the drift watcher
        refreshing a baseline, a peer blob landing twice) never
        rebuilds.
        """
        index = mctop._placement_index
        if index is None:
            with self.obs.timer("service.place.index_build_seconds").time():
                index = mctop.placement_index()
            self.obs.counter("service.place.index_builds").inc()
        return index

    def _insert_memory(self, key: str, mctop: Mctop) -> None:
        self._memory[key] = mctop
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            evicted_key, _ = self._memory.popitem(last=False)
            self.obs.counter("service.cache.evictions").inc()
            if self.events is not None:
                self.events.emit("cache.eviction", key=evicted_key,
                                 memory_entries=len(self._memory))
        self.obs.gauge("service.cache.memory_entries").set(len(self._memory))

    # ------------------------------------------------------------ admin
    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory

    def clear(self) -> None:
        """Drop the memory tier (the disk store is left untouched)."""
        self._memory.clear()
        self.obs.gauge("service.cache.memory_entries").set(0)

    def stats(self) -> dict:
        reg = self.obs.registry
        return {
            "memory_entries": len(self._memory),
            "max_memory_entries": self.max_memory_entries,
            "store_dir": str(self.store_dir) if self.store_dir else None,
            "hits_memory": reg.value("service.cache.hits.memory", 0),
            "hits_disk": reg.value("service.cache.hits.disk", 0),
            "misses": reg.value("service.cache.misses", 0),
            "evictions": reg.value("service.cache.evictions", 0),
        }


class SingleFlight:
    """Coalesce concurrent async calls for the same key.

    The first caller for a key becomes the leader and runs the work;
    callers arriving while it is in flight await the same task and
    share its result (or its exception).  Must be used from a single
    event loop.
    """

    def __init__(self, obs: Observability | None = None):
        self.obs = obs or Observability()
        self._inflight: dict[str, asyncio.Task] = {}

    async def run(self, key: str, thunk) -> object:
        """``await thunk()`` exactly once per key at a time."""
        task = self._inflight.get(key)
        if task is None:
            task = asyncio.ensure_future(thunk())
            self._inflight[key] = task
            task.add_done_callback(
                lambda _t, _k=key: self._inflight.pop(_k, None)
            )
            self.obs.counter("service.singleflight.leaders").inc()
        else:
            self.obs.counter("service.singleflight.coalesced").inc()
            # The waiter's request id, so a coalesced request's trace
            # still shows where its wall time went.
            self.obs.instant(
                "service.singleflight.coalesce",
                key=key[:12],
                request_id=current_request_id.get(),
            )
        # shield(): a cancelled follower (e.g. its request timed out)
        # must not cancel the leader's run that others still await.
        return await asyncio.shield(task)

    def inflight_keys(self) -> list[str]:
        return sorted(self._inflight)
