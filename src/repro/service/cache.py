"""Bounded LRU caching — the service's result tiers and the batch
harness's characterization memo, one implementation.

A :class:`LRUCache` is a thread-safe bounded mapping with least-recently-
used eviction.  The clock is injectable so a degraded read's disclosed
age is unit-testable without sleeping.  :class:`CacheTiers` bundles the
service's two tiers — generated :class:`~repro.datagen.spec.GraphSpec`
datasets and characterization row records — behind one metrics collector.

Keys follow the PR-1 memo discipline: a row's identity is
``(workload, dataset, scale, seed, machine, gpu)`` — exactly a
:class:`~repro.resilience.cell.Cell`'s ``cell_id`` — and a dataset's is
``(dataset, scale, seed)``; two requests that differ in any identity
component never collide.  Those identities are the whole input of what
they name, so an entry can be evicted but never goes stale: nothing
expires.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable


@dataclass
class CacheStats:
    """Counters over a cache's lifetime (monotonic, never reset by
    eviction)."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0          # capacity pressure
    stale_serves: int = 0       # degraded reads (get_stale)
    invalidations: int = 0      # version-mismatch misses (stale snapshot)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "inserts": self.inserts, "evictions": self.evictions,
                "stale_serves": self.stale_serves,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 6)}


class _Entry:
    """One cache slot: the value, its snapshot version and the insertion
    instant a degraded read's age is measured from."""

    __slots__ = ("value", "inserted_at", "version")

    def __init__(self, value: Any, inserted_at: float,
                 version: Hashable | None = None):
        self.value = value
        self.inserted_at = inserted_at      # staleness-age anchor
        self.version = version              # snapshot token (or None)


class LRUCache:
    """Bounded LRU mapping with stale reads.

    ``capacity=0`` disables storage entirely (every ``get`` misses) —
    "cache off" is the same object with a different knob, not a different
    code path.  An entry lives until evicted, overwritten or discarded;
    :meth:`get_stale` reads it with its age whatever its version — the
    substrate of degraded serving, where an out-of-date answer with an
    explicit staleness age beats an error while the backend is down.
    """

    def __init__(self, capacity: int = 128,
                 clock: Callable[[], float] = time.monotonic):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.RLock()
        self._data: dict[Hashable, _Entry] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Non-promoting, non-counting presence check."""
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None, *,
            version: Hashable | None = None) -> Any:
        """Fresh read.  When ``version`` is given, the entry only hits if
        it was put at an equal one (a snapshot version number, or a
        store's ``token``) — a mismatch is a *versioned invalidation*:
        counted, treated as a miss, but the entry is retained so
        :meth:`get_stale` can still disclose it."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.stats.misses += 1
                return default
            if version is not None and entry.version != version:
                self.stats.invalidations += 1
                self.stats.misses += 1
                return default
            # promote: dicts preserve insertion order; re-inserting moves
            # the key to the MRU end
            del self._data[key]
            self._data[key] = entry
            self.stats.hits += 1
            return entry.value

    def get_stale(self, key: Hashable,
                  max_age_s: float | None = None
                  ) -> tuple[Any, float] | None:
        """Degraded read: ``(value, age_s)`` of the entry, whatever its
        version.

        ``age_s`` is seconds since the entry was inserted — the
        staleness the caller must disclose.  ``max_age_s`` is the hard
        staleness cap: an entry older than it is as good as absent.
        Never promotes and never touches hit/miss counters (this path
        only runs when the fresh path already failed); successful reads
        count under ``stale_serves``.
        """
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                return None
            age = max(0.0, self._clock() - entry.inserted_at)
            if max_age_s is not None and age > max_age_s:
                return None
            self.stats.stale_serves += 1
            return entry.value, age

    def put(self, key: Hashable, value: Any, *,
            version: Hashable | None = None) -> None:
        if self.capacity == 0:
            return
        now = self._clock()
        with self._lock:
            if key in self._data:
                del self._data[key]
            self._data[key] = _Entry(value, now, version)
            self.stats.inserts += 1
            while len(self._data) > self.capacity:
                lru = next(iter(self._data))
                del self._data[lru]
                self.stats.evictions += 1

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present (not an eviction: nothing is counted)."""
        with self._lock:
            self._data.pop(key, None)

    def keys(self) -> list[Hashable]:
        """Current keys, LRU first."""
        with self._lock:
            return list(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


# -- key builders ------------------------------------------------------------

def dataset_key(dataset: str, scale: float, seed: int) -> tuple:
    """Identity of a generated dataset in the spec tier."""
    return ("dataset", dataset, float(scale), int(seed))


@dataclass
class CacheTiers:
    """The service's two result tiers behind one metrics collector.

    Datasets are heavier to generate than to keep (an edge array), so the
    spec tier is small; row records are tiny JSON dicts, so the row tier
    is wide.  A row answers until capacity pressure evicts it: its key is
    the cell's whole identity, so its counters cannot change under it.
    """

    datasets: LRUCache = field(default_factory=lambda: LRUCache(32))
    rows: LRUCache = field(default_factory=lambda: LRUCache(1024))

    @classmethod
    def build(cls, *, dataset_capacity: int = 32,
              row_capacity: int = 1024) -> "CacheTiers":
        return cls(datasets=LRUCache(dataset_capacity),
                   rows=LRUCache(row_capacity))

    # -- observability -------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Expose both tiers on a :class:`~repro.obs.MetricsRegistry`.

        Registered as a snapshot-time *collector*: :class:`CacheStats`
        stays the source of truth (the hot-path ``+= 1`` increments under
        the cache's own lock) and the registry reads it only when
        scraped — one set of counters, never a second copy to keep
        consistent.
        """
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> dict:
        events = []
        sizes = []
        for tier, cache in (("datasets", self.datasets),
                            ("rows", self.rows)):
            for event, value in cache.stats.as_dict().items():
                if event == "hit_rate":      # derivable; not a counter
                    continue
                events.append({"labels": {"tier": tier, "event": event},
                               "value": float(value)})
            sizes.append({"labels": {"tier": tier},
                          "value": float(len(cache))})
        return {
            "cache_events_total": {
                "type": "counter",
                "help": "cache tier lifecycle events, by CacheStats field",
                "samples": events},
            "cache_entries": {
                "type": "gauge",
                "help": "live entries per cache tier",
                "samples": sizes},
        }
