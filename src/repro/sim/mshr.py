"""Miss Status Holding Registers.

The MSHR tracks every outstanding miss of a cache, merges secondary misses to
the same block, and applies back-pressure when full.  As in the paper
(Section IV-B), each entry carries a ``pmc`` accumulator that the PMC
Measurement Logic updates during active pure miss cycles, plus the analogous
``mlp_cost`` accumulator used by SBAR / M-CARE.

``MSHREntry`` is a ``__slots__`` class (identity semantics — entries live
in monitor sets): one is allocated per miss and its accumulators are
updated on every PML interval sweep, so both allocation and attribute
access sit on the simulator's hot path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .request import AccessType, MemRequest

_RFO = AccessType.RFO
_PREFETCH = AccessType.PREFETCH


class MSHREntry:
    """One outstanding miss (one block) and everything merged into it."""

    __slots__ = (
        "block", "primary", "issue_time", "core", "waiters", "rfo",
        "pmc", "mlp_cost", "is_pure", "hit_miss_overlap",
        "prefetch_only", "instr_at_issue",
    )

    def __init__(self, block: int, primary: MemRequest, issue_time: int,
                 core: int, waiters: Optional[List[MemRequest]] = None) -> None:
        self.block = block
        self.primary = primary
        self.issue_time = issue_time
        self.core = core
        rtype = primary.rtype
        if waiters is None:
            self.waiters = [primary]
            #: any waiter is an RFO (maintained on merge; the fill path
            #: reads this once per miss instead of rescanning the waiters)
            self.rfo = rtype == _RFO
        else:
            waiters.append(primary)
            self.waiters = waiters
            self.rfo = any(w.rtype == _RFO for w in waiters)

        # --- concurrency bookkeeping (updated by the ConcurrencyMonitor) --
        self.pmc = 0.0               # pure miss contribution accumulated so far
        self.mlp_cost = 0.0          # MLP-based cost accumulated so far
        self.is_pure = False         # had >=1 pure miss cycle
        self.hit_miss_overlap = False  # >=1 miss cycle hidden under base cycles

        # --- provenance ---------------------------------------------------
        #: no demand request merged in yet
        self.prefetch_only = rtype == _PREFETCH
        self.instr_at_issue = 0      # core's instruction count when miss issued

    def merge(self, req: MemRequest) -> None:
        """Attach a secondary miss to this entry."""
        self.waiters.append(req)
        rtype = req.rtype
        if rtype != _PREFETCH:
            # A demand merged under a prefetch-initiated miss: the block is
            # no longer a pure prefetch (ChampSim's prefetch promotion).
            self.prefetch_only = False
            if rtype == _RFO:
                self.rfo = True

    @property
    def has_rfo(self) -> bool:
        return self.rfo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MSHREntry(block={self.block:#x}, core={self.core}, "
                f"waiters={len(self.waiters)}, pmc={self.pmc:.1f})")


class MSHR:
    """Fixed-capacity MSHR file for one cache."""

    __slots__ = ("capacity", "_entries", "peak_occupancy", "merges",
                 "allocations")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[int, MSHREntry] = {}
        # peak occupancy / merge statistics
        self.peak_occupancy = 0
        self.merges = 0
        self.allocations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lookup(self, block: int) -> Optional[MSHREntry]:
        return self._entries.get(block)

    def allocate(self, req: MemRequest, time: int) -> MSHREntry:
        """Allocate a new entry for ``req``'s block.  Caller checks ``full``."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise RuntimeError("MSHR allocate on full file")
        block = req.block
        if block in entries:
            raise RuntimeError(f"duplicate MSHR allocation for block {block:#x}")
        entry = MSHREntry(block, req, time, req.core)
        entries[block] = entry
        self.allocations += 1
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)
        return entry

    def merge(self, block: int, req: MemRequest) -> MSHREntry:
        entry = self._entries[block]
        entry.merge(req)
        self.merges += 1
        return entry

    def free(self, block: int) -> MSHREntry:
        return self._entries.pop(block)

    def outstanding_for_core(self, core: int) -> int:
        """N_x in Algorithm 1: outstanding misses from ``core`` at this level."""
        return sum(1 for e in self._entries.values() if e.core == core)

    def entries_for_core(self, core: int) -> List[MSHREntry]:
        return [e for e in self._entries.values() if e.core == core]
