"""Content-addressed on-disk store for frozen workload traces.

A :class:`~repro.core.trace.FrozenTrace` depends only on (workload,
dataset identity, seed, user params) — it is machine-independent by
construction (the framework emits virtual addresses and instruction
counts; no cache/TLB/branch state enters trace generation).  A machine
sensitivity sweep therefore only needs to *execute* the workload once and
can replay the stored trace against every :class:`MachineConfig`.

Layout: each entry is ``<key>.npz`` (numpy columns) plus a
``<key>.json`` sidecar carrying the regions table, scalar outputs, trace
counters and provenance.  The key is the sha256 of the canonical JSON of
(workload, dataset identity, canonicalized params, trace-format
version), so different seeds/params/datasets can never share an entry and
a format bump invalidates every old entry at once.

Writes are atomic (tmp file + ``os.replace``); the sidecar is written
last and acts as the commit marker.  Loads fail open: a corrupt or
partially written entry — or one whose columns do not fit each other and
the sidecar (:func:`_check_columns`) — counts as a miss and the workload
is re-run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .trace import FrozenTrace, Region

#: Bump when the FrozenTrace schema or the emission semantics of the
#: framework primitives change — stored entries from older formats must
#: never be replayed as if current.
TRACE_FORMAT_VERSION = 1

_ARRAY_FIELDS = ("addrs", "rw", "iat", "acc_region", "branch_sites",
                 "branch_taken", "region_seq", "region_instrs")
#: the dtype :meth:`Tracer.freeze` gives each column, which ``save`` writes
_DTYPES = dict(zip(_ARRAY_FIELDS, (np.uint64, np.uint8, np.uint64, np.uint32,
                                   np.uint32, np.uint8, np.uint32, np.uint64)))


class TraceStoreKeyError(ValueError):
    """Raised when a params value cannot be canonicalized into a key."""


def _canon(value: Any) -> Any:
    """Canonicalize one params value into deterministic JSON-able form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return {"__ndarray__": hashlib.sha256(
                    np.ascontiguousarray(value).tobytes()).hexdigest(),
                "dtype": str(value.dtype),
                "shape": list(value.shape)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items(),
                                                     key=lambda kv: str(kv[0]))}
    raise TraceStoreKeyError(
        f"cannot canonicalize params value of type {type(value).__name__}")


def _check_columns(cols: dict[str, np.ndarray], regions: dict[int, Region],
                   n_instrs: int, n_accesses: int) -> None:
    """Refuse (``ValueError``) columns read from disk that a replay would
    index out of bounds or silently misread: what :class:`Tracer` vouches
    for in a trace it froze, checked again for one it did not."""
    for f, col in cols.items():
        if col.dtype != _DTYPES[f] or col.ndim != 1:
            raise ValueError(f"{f}: {col.dtype} array of rank {col.ndim}")
    size = {f: len(col) for f, col in cols.items()}
    if not (size["addrs"] == size["rw"] == size["iat"]
            == size["acc_region"] == n_accesses):
        raise ValueError("access columns differ in length")
    if size["branch_sites"] != size["branch_taken"]:
        raise ValueError("branch columns differ in length")
    if size["region_seq"] != size["region_instrs"] \
            or int(cols["region_instrs"].sum()) != n_instrs:
        raise ValueError("region visits do not account for n_instrs")
    iat = cols["iat"]
    if len(iat) and ((iat[1:] < iat[:-1]).any() or int(iat[-1]) > n_instrs):
        raise ValueError("iat decreases or passes n_instrs")
    known = np.zeros(max(regions) + 1, dtype=bool)
    known[list(regions)] = True
    for f in ("acc_region", "region_seq"):
        rids = cols[f]
        if len(rids) and (int(rids.max()) >= len(known)
                          or not known.take(rids).all()):
            raise ValueError(f"{f} names a region the sidecar does not")


@dataclass
class TraceStoreStats:
    """Store efficacy counters, read off the store its caller holds."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0      # corrupt / unreadable entries (treated as misses)


@dataclass
class StoredTrace:
    """One loaded store entry: the trace plus run context for the harness."""

    trace: FrozenTrace
    footprint_bytes: int
    outputs: dict[str, Any]
    params: dict[str, Any]
    key: str


#: entries kept in the per-store in-memory cache (a machine sweep replays
#: the same handful of traces many times; re-parsing the npz per machine
#: was a measurable share of sweep time)
_MEM_CACHE_ENTRIES = 8


class TraceStore:
    """Content-addressed trace store rooted at a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = TraceStoreStats()
        self._mem: dict[str, StoredTrace] = {}

    def _mem_put(self, key: str, entry: StoredTrace) -> None:
        self._mem[key] = entry
        if len(self._mem) > _MEM_CACHE_ENTRIES:
            del self._mem[next(iter(self._mem))]

    def _mem_get(self, key: str) -> StoredTrace | None:
        entry = self._mem.get(key)
        if entry is None:
            return None
        # fresh shallow dicts: callers may mutate outputs/params copies
        return StoredTrace(trace=entry.trace,
                           footprint_bytes=entry.footprint_bytes,
                           outputs=dict(entry.outputs),
                           params=dict(entry.params),
                           key=key)

    # -- keys ----------------------------------------------------------------
    def key_for(self, workload: str, spec, params: dict | None = None) -> str:
        """Content key of (workload, dataset identity, canonical params).

        ``spec`` is a :class:`~repro.datagen.spec.GraphSpec`; its
        :meth:`~repro.datagen.spec.GraphSpec.identity` — (name, n, m,
        seed), plus an edge digest when no seed fixes the edges —
        identifies the dataset.  Raises
        :class:`TraceStoreKeyError` for params that cannot be
        canonicalized (e.g. live objects) — callers should bypass the
        store for those runs rather than risk a collision.
        """
        dataset, n, m, seed, *edges = spec.identity()
        ident = {
            "v": TRACE_FORMAT_VERSION,
            "workload": workload,
            "dataset": dataset,
            "n": n,
            "m": m,
            "seed": seed,
            "params": _canon(dict(params or {})),
        }
        if edges:               # hand-built: seeded keys stay as they were
            ident["edges"] = edges[0]
        blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.npz", self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        npz, sidecar = self._paths(key)
        return npz.exists() and sidecar.exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    # -- load/save -----------------------------------------------------------
    def load(self, key: str) -> StoredTrace | None:
        """Load an entry; ``None`` on miss or corruption (fail open)."""
        cached = self._mem_get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        npz_path, sidecar_path = self._paths(key)
        if not (npz_path.exists() and sidecar_path.exists()):
            self.stats.misses += 1
            return None
        try:
            meta = json.loads(sidecar_path.read_text())
            if meta.get("format_version") != TRACE_FORMAT_VERSION:
                raise ValueError("trace format version mismatch")
            with np.load(npz_path, allow_pickle=False) as data:
                cols = {f: data[f] for f in _ARRAY_FIELDS}
            regions = {int(r["rid"]): Region(int(r["rid"]), r["name"],
                                             int(r["code_bytes"]),
                                             bool(r["framework"]))
                       for r in meta["regions"]}
            _check_columns(cols, regions, int(meta["n_instrs"]),
                           int(meta["n_accesses"]))
            trace = FrozenTrace(
                **cols,
                regions=regions,
                n_instrs=int(meta["n_instrs"]),
                fw_instrs=int(meta["fw_instrs"]),
                fw_accesses=int(meta["fw_accesses"]),
                n_accesses=int(meta["n_accesses"]),
            )
        except (OSError, KeyError, TypeError, ValueError,
                json.JSONDecodeError):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry = StoredTrace(trace=trace,
                            footprint_bytes=int(meta.get("footprint_bytes", 0)),
                            outputs=dict(meta.get("outputs", {})),
                            params=dict(meta.get("params", {})),
                            key=key)
        self._mem_put(key, entry)
        return self._mem_get(key)

    def save(self, key: str, trace: FrozenTrace, *,
             footprint_bytes: int = 0,
             outputs: dict[str, Any] | None = None,
             params: dict[str, Any] | None = None,
             provenance: dict[str, Any] | None = None) -> Path:
        """Persist one entry atomically; returns the sidecar path.

        ``outputs``/``params`` must already be JSON-safe scalars (the
        harness filters them); ``provenance`` is free-form context
        (workload, dataset, ...) recorded for debugging only.
        """
        npz_path, sidecar_path = self._paths(key)
        cols = {f: getattr(trace, f) for f in _ARRAY_FIELDS}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                # uncompressed: traces are a few MB and the zlib pass was
                # the single largest cost of a store write
                np.savez(fh, **cols)
            os.replace(tmp, npz_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        meta = {
            "format_version": TRACE_FORMAT_VERSION,
            "key": key,
            "regions": [{"rid": r.rid, "name": r.name,
                         "code_bytes": r.code_bytes,
                         "framework": r.framework}
                        for r in trace.regions.values()],
            "n_instrs": int(trace.n_instrs),
            "fw_instrs": int(trace.fw_instrs),
            "fw_accesses": int(trace.fw_accesses),
            "n_accesses": int(trace.n_accesses),
            "footprint_bytes": int(footprint_bytes),
            "outputs": outputs or {},
            "params": params or {},
            "provenance": provenance or {},
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(meta, fh)
            os.replace(tmp, sidecar_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stats.stores += 1
        # deliberately NOT seeded into the memory tier: the fail-open
        # contract is that load() reflects what is actually on disk, so a
        # tampered/corrupted entry must read as a miss even right after a
        # save.  The first load pays one npz parse and warms the tier.
        self._mem.pop(key, None)
        return sidecar_path
