"""Consistent-hash ring: dataset keys to shards, with minimal movement.

The ring places ``vnodes`` virtual points per shard on a 64-bit circle
(SHA-1 of ``"{shard}#{i}"`` — stable across processes and independent of
``PYTHONHASHSEED``, the same discipline the retry/netchaos RNGs use) and
assigns a key to the first point at or after the key's own hash.  Two
properties make it the cluster's routing primitive:

* **Determinism** — ``owner(key)`` is a pure function of the shard set,
  so every router, shard, and test computes the same placement without
  coordination.
* **Minimal movement** — adding or removing one shard relocates only the
  keys whose arc the change touches, ~``1/N`` of the keyspace rather
  than ~all of it (what a naive ``hash(key) % N`` would do).
  :func:`plan_rebalance` makes that fraction an explicit, reportable
  artifact.

Replication reads the ring clockwise: ``owners(key, k)`` is the first
``k`` *distinct* shards at or after the key — so replica sets are as
stable under membership change as primary ownership is.

Routing keys are dataset registry keys (a request's ``dataset``
parameter), which keeps every cell of a dataset — and that dataset's
generated spec — on the same shard.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

DEFAULT_VNODES = 64


def stable_hash(key: str) -> int:
    """64-bit position on the circle; SHA-1-based, process-independent."""
    return int.from_bytes(
        hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Immutable consistent-hash ring over named shards."""

    def __init__(self, nodes: Iterable[str], vnodes: int = DEFAULT_VNODES):
        self.nodes: tuple[str, ...] = tuple(sorted(set(nodes)))
        if not self.nodes:
            raise ValueError("ring needs at least one node")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        points = []
        for node in self.nodes:
            for i in range(vnodes):
                points.append((stable_hash(f"{node}#{i}"), node))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [n for _, n in points]

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:   # pragma: no cover
        return (f"HashRing({len(self.nodes)} nodes x "
                f"{self.vnodes} vnodes)")

    def _start(self, key: str) -> int:
        idx = bisect_right(self._hashes, stable_hash(key))
        return idx % len(self._hashes)

    def owner(self, key: str) -> str:
        """The shard owning ``key`` (its primary replica)."""
        return self._owners[self._start(key)]

    def owners(self, key: str, k: int = 1) -> tuple[str, ...]:
        """The first ``k`` distinct shards clockwise from ``key``.

        The replica set, primary first.  ``k`` is clamped to the number
        of shards — a 2-replica spec over one shard degrades to one copy
        instead of failing.
        """
        k = min(max(k, 1), len(self.nodes))
        found: list[str] = []
        idx = self._start(key)
        n = len(self._owners)
        for step in range(n):
            node = self._owners[(idx + step) % n]
            if node not in found:
                found.append(node)
                if len(found) == k:
                    break
        return tuple(found)


@dataclass(frozen=True)
class RebalancePlan:
    """The key movement a membership change causes, made explicit.

    ``moved`` maps each relocated key to its ``(old, new)`` owner; the
    headline number is ``fraction_moved`` — for a healthy consistent
    ring it sits near ``1/N_after`` on a join (and ``1/N_before`` on a
    leave), *not* near 1.
    """

    before: tuple[str, ...]
    after: tuple[str, ...]
    total_keys: int
    moved: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def fraction_moved(self) -> float:
        return len(self.moved) / self.total_keys if self.total_keys else 0.0

    def per_shard(self) -> dict[str, dict[str, int]]:
        """Keys gained/lost per shard (the operator's migration sizes)."""
        out = {n: {"gained": 0, "lost": 0}
               for n in sorted(set(self.before) | set(self.after))}
        for old, new in self.moved.values():
            out[old]["lost"] += 1
            out[new]["gained"] += 1
        return out

    def summary(self) -> dict:
        """JSON-ready plan summary.

        The per-key listing is capped at 20 entries
        (sorted, so the sample is stable) with the overflow disclosed in
        ``moved_keys_omitted`` — a synthetic-keyspace estimate can move
        thousands of keys, and the summary is an operator artifact, not
        a dump.
        """
        out = {"before": list(self.before), "after": list(self.after),
               "total_keys": self.total_keys, "moved": len(self.moved),
               "fraction_moved": round(self.fraction_moved, 4),
               "per_shard": self.per_shard()}
        listed = sorted(self.moved)[:20]
        out["moved_keys"] = {k: {"from": self.moved[k][0],
                                 "to": self.moved[k][1]}
                             for k in listed}
        omitted = len(self.moved) - len(listed)
        if omitted > 0:
            out["moved_keys_omitted"] = omitted
        return out


def plan_rebalance(before: HashRing, after: HashRing,
                   keys: Sequence[str]) -> RebalancePlan:
    """Deterministic movement plan for ``keys`` across a ring change."""
    moved = {}
    for key in keys:
        old, new = before.owner(key), after.owner(key)
        if old != new:
            moved[key] = (old, new)
    return RebalancePlan(before=before.nodes, after=after.nodes,
                         total_keys=len(keys), moved=moved)


def synthetic_keys(n: int) -> list[str]:
    """A smooth keyspace sample for movement estimates (the registry has
    only a handful of dataset keys; fractions need volume)."""
    return [f"key-{i}" for i in range(n)]
