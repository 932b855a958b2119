"""Trace format shared by workload generators and the core model.

A trace is a sequence of records.  Each record is one memory instruction
plus the ``gap`` non-memory instructions that precede it, so a trace of N
records represents ``sum(gap_i + 1)`` instructions — the denominator for
IPC and MPKI.

A :class:`Trace` stores its records as four typed columns, about 21 bytes
a record where a list of :class:`TraceRecord` namedtuples costs about 165
(tracemalloc, on a SPEC-like trace):

* ``pc`` and ``addr`` — ``array('Q')``;
* ``gap`` — ``array('I')``;
* ``flags`` — ``array('B')``: bit 0 (:attr:`Trace.WRITE`) marks a store,
  bit 1 (:attr:`Trace.DEP`) an address-dependent load.

Generators append to the columns and the core reads them.  A
:class:`TraceRecord` is built only on demand — ``trace[i]``, iteration,
``trace.records`` — for tests, examples and analysis.  This module and
:mod:`repro.workloads.io` (the file layout) are the only code that knows
the column types.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, NamedTuple, Sequence

from ..sim.config import BLOCK_SIZE


class TraceRecord(NamedTuple):
    """One memory access in a workload trace.

    A :class:`Trace` does not store these: it builds one when a single
    record is read (``trace[i]``, iteration, ``trace.records``), and
    packs them into its columns when it is built from a record list.

    ``dep`` marks a load whose address depends on the previous record's
    data (pointer chasing): the core cannot issue it until the previous
    access completes, which is what makes such misses *isolated* and
    expensive — exactly the misses PMC grades as costly.
    """

    pc: int        # instruction pointer of the access
    addr: int      # byte address accessed
    is_write: bool
    gap: int       # non-memory instructions since the previous access
    dep: bool = False


class Trace(Sequence[TraceRecord]):
    """A named trace with provenance metadata, stored as four columns.

    ``Trace(name, records)`` packs an iterable of :class:`TraceRecord`;
    generators start from an empty trace and append to the columns.  A
    value a column cannot hold — negative, or wider than 64 bits for
    ``pc``/``addr`` and 32 bits for ``gap`` — raises ``ValueError``.
    """

    __slots__ = ("name", "seed", "suite", "pc", "addr", "gap", "flags")

    #: ``flags`` bit of a store
    WRITE = 1
    #: ``flags`` bit of an address-dependent load
    DEP = 2

    def __init__(self, name: str, records: Iterable[TraceRecord] = (),
                 seed: int = 0, suite: str = "synthetic") -> None:
        self.name = name
        self.seed = seed
        self.suite = suite
        self.pc = array("Q")
        self.addr = array("Q")
        self.gap = array("I")
        self.flags = array("B")
        for rec in records:
            self.append(*rec)

    @classmethod
    def from_columns(cls, name: str, pc: array, addr: array, gap: array,
                     flags: array, seed: int = 0,
                     suite: str = "synthetic") -> "Trace":
        """A trace over ready-made columns (the trace file reader's
        constructor); the columns must have the types above."""
        trace = cls(name, seed=seed, suite=suite)
        trace.pc, trace.addr, trace.gap, trace.flags = pc, addr, gap, flags
        trace.validate()
        return trace

    def append(self, pc: int, addr: int, is_write: bool, gap: int,
               dep: bool = False) -> None:
        """Append one record, given as :class:`TraceRecord`'s fields."""
        n = len(self.flags)
        try:
            self.pc.append(pc)
            self.addr.append(addr)
            self.gap.append(gap)
        except OverflowError:
            del self.pc[n:], self.addr[n:], self.gap[n:]
            raise ValueError(
                f"{self.name}: bad record {n}: "
                f"{TraceRecord(pc, addr, is_write, gap, dep)}") from None
        self.flags.append((self.WRITE if is_write else 0)
                          | (self.DEP if dep else 0))

    def shift(self, offset: int) -> None:
        """Move every address up by ``offset`` bytes."""
        self.addr = array("Q", [a + offset for a in self.addr])

    # -- records on demand ----------------------------------------------
    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(len(self)))]
        flags = self.flags[idx]
        return TraceRecord(self.pc[idx], self.addr[idx],
                           bool(flags & self.WRITE), self.gap[idx],
                           bool(flags & self.DEP))

    def __iter__(self) -> Iterator[TraceRecord]:
        write, dep = self.WRITE, self.DEP
        for pc, addr, gap, flags in zip(self.pc, self.addr, self.gap,
                                        self.flags):
            yield TraceRecord(pc, addr, bool(flags & write), gap,
                              bool(flags & dep))

    @property
    def records(self) -> List[TraceRecord]:
        """Every record, built now (for tests, examples and analysis)."""
        return list(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return ((self.name, self.seed, self.suite, self.pc, self.addr,
                 self.gap, self.flags)
                == (other.name, other.seed, other.suite, other.pc,
                    other.addr, other.gap, other.flags))

    def __repr__(self) -> str:
        return (f"Trace(name={self.name!r}, records={len(self)}, "
                f"seed={self.seed!r}, suite={self.suite!r})")

    # -- summaries ------------------------------------------------------
    @property
    def instructions(self) -> int:
        """Total instructions represented (memory + compute)."""
        return sum(self.gap) + len(self.gap)

    @property
    def memory_accesses(self) -> int:
        return len(self)

    @property
    def write_fraction(self) -> float:
        if not self.flags:
            return 0.0
        # validate() admits only the two flag bits
        writes = (self.flags.count(self.WRITE)
                  + self.flags.count(self.WRITE | self.DEP))
        return writes / len(self.flags)

    def footprint_blocks(self) -> int:
        """Distinct 64B blocks touched."""
        return len({a // BLOCK_SIZE for a in self.addr})

    def validate(self) -> None:
        """Check the invariants the columns do not enforce themselves:
        one entry per record in each, and no flag bit but the two above.
        (Negative and oversized values never get into a column.)"""
        n = len(self.flags)
        if not len(self.pc) == len(self.addr) == len(self.gap) == n:
            raise ValueError(
                f"{self.name}: column lengths differ (pc {len(self.pc)}, "
                f"addr {len(self.addr)}, gap {len(self.gap)}, flags {n})")
        if n and max(self.flags) > (self.WRITE | self.DEP):
            raise ValueError(f"{self.name}: unknown flag bits "
                             f"{max(self.flags):#x}")


def make_trace(name: str, records: Iterable[TraceRecord], seed: int = 0,
               suite: str = "synthetic") -> Trace:
    """Pack ``records`` into a :class:`Trace` (``ValueError`` on a field
    its column cannot hold)."""
    return Trace(name, records, seed=seed, suite=suite)
