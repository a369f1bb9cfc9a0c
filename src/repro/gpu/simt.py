"""SIMT execution accounting: warps, lane activity, divergence.

The paper's GPU metrics are defined arithmetically (Section 5.1):

* ``BDR = inactive threads per warp / warp size`` — averaged over issued
  warp instructions, so a warp stuck in a long divergent loop weighs more.
* ``MDR = replayed instructions / issued instructions`` — a load/store
  replays until every distinct 128-byte segment requested by the warp's
  active lanes has been serviced.

:class:`KernelAccum` lets GPU kernels report their per-iteration work in
bulk numpy form: ``loop()`` records a data-dependent inner loop (per-thread
trip counts → warp cycles = per-warp max), ``mem_op()`` records one memory
instruction class (per-access warp/slot ids + byte addresses → replays via
distinct-segment counting), ``atomic_op()`` additionally serializes on
address conflicts.  Both BDR and MDR then fall out of the paper's formulas
exactly.  DRAM traffic is what survives the device L2: the one LRU walk of
:mod:`repro.arch.cache` over the banked warp transactions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..arch.cache import lru_miss_idx

WARP_SIZE = 32
SEGMENT = 128            # coalescing granularity in bytes


def warp_of(thread_ids: np.ndarray) -> np.ndarray:
    """Warp index of each thread id (consecutive 32-thread grouping)."""
    return np.asarray(thread_ids, dtype=np.int64) // WARP_SIZE


@dataclass
class KernelStats:
    """Accumulated SIMT counters for one kernel (or a sum of launches)."""

    warp_issues: float = 0.0      # warp-level instruction issues (compute)
    lane_issues: float = 0.0      # lane-level instruction executions
    mem_base_issues: int = 0      # memory instructions (one per warp op)
    mem_replays: int = 0          # extra issues for extra segments
    mem_lane_accesses: int = 0
    slot_transactions: int = 0    # distinct 128 B segments per warp issue
    dram_transactions: int = 0    # segments surviving the L2 (launch-deduped)
    bytes_read: int = 0
    bytes_written: int = 0
    atomic_ops: int = 0
    atomic_conflicts: int = 0     # serialized same-address collisions
    launches: int = 0

    def merge(self, other: "KernelStats") -> None:
        for f in ("warp_issues", "lane_issues", "mem_base_issues",
                  "mem_replays", "mem_lane_accesses", "slot_transactions",
                  "dram_transactions", "bytes_read", "bytes_written",
                  "atomic_ops", "atomic_conflicts", "launches"):
            setattr(self, f, getattr(self, f) + getattr(other, f))

    # -- the paper's two divergence metrics ----------------------------------
    @property
    def bdr(self) -> float:
        """Branch divergence rate: mean inactive lanes per issued warp
        instruction / warp size (0 = fully converged).

        Computed over *control-flow* (compute) issues: memory replays
        re-execute with the warp's existing active mask, so they carry no
        additional branch divergence."""
        if self.warp_issues == 0:
            return 0.0
        return max(0.0, 1.0 - self.lane_issues
                   / (WARP_SIZE * self.warp_issues))

    @property
    def mem_issued(self) -> int:
        """Issued memory instructions including replays."""
        return self.mem_base_issues + self.mem_replays

    @property
    def mdr(self) -> float:
        """Memory divergence rate: replayed / issued memory instructions."""
        issued = self.mem_issued
        return self.mem_replays / issued if issued else 0.0

    @property
    def total_issues(self) -> float:
        """All warp-level instruction issues (compute + memory + replays)."""
        return self.warp_issues + self.mem_issued

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


#: slot/segment composite-key stride; segments must stay below this.
_KEY_STRIDE = 1 << 45


class KernelAccum:
    """Bulk recorder of SIMT work; produces a :class:`KernelStats`.

    Bytes are counted at DRAM level: warp transactions run through a
    finite LRU segment cache (the device L2, capacity ``l2_bytes`` —
    scaled with the datasets like the CPU caches, see DESIGN.md); only
    misses become DRAM traffic.  Replay counting stays at the warp-issue
    level — replays happen before the cache.

    Each :meth:`mem_op` banks its transaction stream as one chunk; the L2
    is one :func:`~repro.arch.cache.lru_miss_idx` walk over the
    concatenated chunks — a single fully-associative pool, so one slot
    with ``assoc`` = capacity in segments — and each chunk's DRAM traffic
    is the number of misses that fall inside it.  :attr:`stats` is a pure
    function of the chunks banked so far, so it can be read mid-kernel.
    """

    def __init__(self, l2_bytes: int = 32 * 1024):
        self._stats = KernelStats()
        self._slot_base = 0
        self._l2_segments = max(1, l2_bytes // SEGMENT)
        # banked transaction chunks: (segment array, is_write, rmw)
        self._chunks: list[tuple[np.ndarray, bool, bool]] = []

    @property
    def stats(self) -> KernelStats:
        """Counters so far, with the banked traffic run through the L2."""
        st = dataclasses.replace(self._stats)
        if not self._chunks:
            return st
        chunks, is_write, rmw = zip(*self._chunks)
        segs = np.concatenate(chunks)
        chunk_id = np.repeat(np.arange(len(chunks)),
                             [len(c) for c in chunks])
        miss = lru_miss_idx(np.zeros(len(segs), dtype=np.int64), segs,
                            self._l2_segments)
        dram = np.bincount(chunk_id[miss], minlength=len(chunks))
        is_write = np.asarray(is_write)
        # an atomic that misses the L2 reads the line from DRAM before
        # writing it back
        reads = ~is_write | np.asarray(rmw)
        st.dram_transactions = len(miss)
        st.bytes_written = int(dram[is_write].sum()) * SEGMENT
        st.bytes_read = int(dram[reads].sum()) * SEGMENT
        return st

    # -- compute -------------------------------------------------------------
    def uniform_op(self, active: np.ndarray, instrs: float = 1.0) -> None:
        """A straight-line op executed by threads where ``active`` is True
        (bool array indexed by thread id)."""
        active = np.asarray(active, dtype=bool)
        if not active.any():
            return
        n = len(active)
        n_warps_active = np.add.reduceat(
            active, np.arange(0, n, WARP_SIZE)).astype(bool).sum()
        self._stats.warp_issues += float(n_warps_active) * instrs
        self._stats.lane_issues += float(active.sum()) * instrs

    def loop(self, trips: np.ndarray, body_instrs: float = 1.0) -> None:
        """A data-dependent inner loop: thread ``i`` runs ``trips[i]``
        iterations.  A warp issues ``max(trips in warp)`` iterations — the
        unbalanced-workload divergence of thread-centric kernels."""
        trips = np.asarray(trips, dtype=np.int64)
        n = len(trips)
        if n == 0:
            return
        steps = np.maximum.reduceat(trips, np.arange(0, n, WARP_SIZE))
        self._stats.warp_issues += float(steps.sum()) * body_instrs
        self._stats.lane_issues += float(trips.sum()) * body_instrs

    # -- memory --------------------------------------------------------------
    def mem_op(self, slot: np.ndarray, addrs: np.ndarray,
               elem_bytes: int = 8, is_write: bool = False,
               rmw: bool = False) -> None:
        """One class of memory instruction.

        ``slot`` identifies which (warp, step) each access belongs to —
        all accesses sharing a slot value execute *simultaneously* as one
        warp memory instruction; ``addrs`` are their byte addresses.
        Replays = distinct 128 B segments per slot beyond the first.
        """
        slot = np.asarray(slot, dtype=np.int64)
        addrs = np.asarray(addrs, dtype=np.int64)
        if slot.shape != addrs.shape:
            raise ValueError("slot and addrs must be parallel")
        if len(slot) == 0:
            return
        # offset slots so different mem_op calls never collide
        slot = slot - slot.min() + self._slot_base
        self._slot_base = int(slot.max()) + 1
        segs = addrs // SEGMENT
        if int(segs.max()) >= _KEY_STRIDE:
            raise ValueError("segment index exceeds composite-key stride")
        key = slot * _KEY_STRIDE + segs
        ukey = np.unique(key)           # sorted: slot-major ~ program order
        n_unique = len(ukey)
        n_slots = len(np.unique(slot))
        st = self._stats
        st.mem_base_issues += n_slots
        st.mem_replays += n_unique - n_slots
        st.mem_lane_accesses += len(addrs)
        st.slot_transactions += n_unique
        # DRAM traffic: the transaction stream, banked for the L2 walk
        self._chunks.append((ukey % _KEY_STRIDE, is_write, rmw))

    def atomic_op(self, slot: np.ndarray, addrs: np.ndarray,
                  elem_bytes: int = 8) -> None:
        """Atomic read-modify-write.

        Unlike plain loads, atomics replay per distinct *word*, not per
        128 B segment — the L2's atomic unit processes one address of a
        warp at a time — so scattered atomics (DCentr's in-degree
        accumulation) are the most replay-intensive instructions on the
        device (the paper's MDR maximum).  Same-address lanes within a
        warp additionally serialize (``atomic_conflicts``).
        """
        slot = np.asarray(slot, dtype=np.int64)
        addrs = np.asarray(addrs, dtype=np.int64)
        self.mem_op(slot, addrs, elem_bytes, is_write=True, rmw=True)
        st = self._stats
        st.atomic_ops += len(addrs)
        if len(addrs):
            pair = slot * _KEY_STRIDE + addrs % _KEY_STRIDE
            n_addr_pairs = len(np.unique(pair))
            seg_pair = slot * _KEY_STRIDE + (addrs // SEGMENT)
            n_seg_pairs = len(np.unique(seg_pair))
            # every lane beyond the first replays: distinct words replay
            # through the atomic unit, same-address lanes serialize —
            # mem_op already counted the segment-level share
            st.mem_replays += len(addrs) - n_seg_pairs
            st.atomic_conflicts += len(addrs) - n_addr_pairs

    def launch(self) -> None:
        """Mark one kernel launch (iteration) boundary."""
        self._stats.launches += 1


def slots_for_loop(trips: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """Expand per-thread loop trips into flat (thread, step, slot) arrays.

    For every thread ``i`` and step ``k < trips[i]`` one entry is produced;
    ``slot = warp(i) * max_trip + k`` groups the lanes that execute step k
    of the same warp together — the operand :meth:`KernelAccum.mem_op`
    needs for loop-body loads.
    """
    trips = np.asarray(trips, dtype=np.int64)
    if len(trips) == 0 or trips.max() == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    threads = np.repeat(np.arange(len(trips)), trips)
    # step index within each thread's run
    ends = np.cumsum(trips)
    starts = ends - trips
    steps = np.arange(int(ends[-1])) - np.repeat(starts, trips)
    max_trip = int(trips.max())
    slots = (threads // WARP_SIZE) * max_trip + steps
    return threads, steps, slots
