"""Core front-end / ROB model.

The paper's cores are 8-issue out-of-order with a 256-entry ROB (Table VII).
For a last-level-cache study, what the core model must get right is the
*shape of memory concurrency*: how many misses a core keeps outstanding, and
how much compute is available to overlap them.  We model:

* a trace of records ``(pc, addr, is_write, gap)`` where ``gap`` counts the
  non-memory instructions preceding the access,
* an issue-width-limited front end: dispatching a record's ``gap + 1``
  instructions advances a fractional front-end clock by ``(gap+1)/width``,
* a ROB occupancy window in instruction slots with in-order retirement:
  a record's slots are claimed at dispatch and released when the record and
  all older records have completed,
* non-blocking memory: loads/stores issue to L1D when they pass the front
  end and complete whenever the hierarchy responds.

Following the paper's methodology ("we warm up each core using 50M
instructions ... then run simulation over the next 200M instructions"),
each core first retires ``warmup_records`` records unmeasured; IPC is then
measured over the next ``measure_records`` records.  After a core finishes
its measured region it keeps replaying its trace to maintain pressure on
shared resources until every core has finished (the CRC-2/DPC-3 multi-core
methodology the paper follows).
"""

from __future__ import annotations

from collections import deque
from math import ceil
from typing import (TYPE_CHECKING, Any, Callable, Deque, List, Optional,
                    Sequence)

from .config import CoreConfig
from .engine import Engine
from .request import AccessType, MemRequest

if TYPE_CHECKING:
    from .cache import Cache

_LOAD = AccessType.LOAD
_RFO = AccessType.RFO


class _RobEntry:
    __slots__ = ("slots", "done", "measured", "deferred")

    def __init__(self, slots: int, measured: bool) -> None:
        self.slots = slots
        self.done = False
        self.measured = measured
        # requests address-dependent on this one (lazily allocated)
        self.deferred: Optional[List["MemRequest"]] = None


class Core:
    """One core consuming a memory-access trace."""

    __slots__ = (
        "core_id", "engine", "l1", "records", "cfg", "measure_records",
        "warmup_records", "replay", "start_offset", "on_finish", "on_warm",
        "_idx", "_rob", "_prev_entry", "_rob_occ", "_front_time", "_stopped",
        "dispatched_instructions", "dispatched_records", "retired_records",
        "retired_instructions", "warm", "measure_start_time", "finished",
        "finish_time", "_complete_callback", "tracer", "_trace_tid",
    )

    def __init__(self, core_id: int, engine: Engine, l1: "Cache",
                 records: Sequence, cfg: CoreConfig,
                 measure_records: Optional[int] = None,
                 warmup_records: int = 0,
                 replay: bool = True,
                 start_offset: int = 0,
                 on_finish: Optional[Callable[["Core"], None]] = None,
                 on_warm: Optional[Callable[["Core"], None]] = None) -> None:
        self.core_id = core_id
        self.engine = engine
        self.l1 = l1
        self.records = records
        self.cfg = cfg
        self.measure_records = (
            len(records) if measure_records is None else measure_records)
        self.warmup_records = warmup_records
        self.replay = replay
        self.start_offset = start_offset
        self.on_finish = on_finish
        self.on_warm = on_warm

        self._idx = 0
        self._rob: Deque[_RobEntry] = deque()
        self._prev_entry: Optional[_RobEntry] = None
        self._rob_occ = 0
        self._front_time: float = float(start_offset)
        self._stopped = False

        # Measurement ----------------------------------------------------
        self.dispatched_instructions = 0
        self.dispatched_records = 0
        self.retired_records = 0            # total, warmup included
        self.retired_instructions = 0       # measured region only
        self.warm = warmup_records == 0
        self.measure_start_time = start_offset
        self.finished = False
        self.finish_time = 0

        if self.measure_records == 0 or not records:
            self.finished = True

        # Shared completion callback: one bound method for every request
        # (the request carries its ROB entry) instead of a closure per
        # dispatched record.
        self._complete_callback = self._complete_cb

        # Optional event tracer (repro.obs): the core is where a request
        # lifecycle is sampled; ``None`` keeps dispatch untraced.
        self.tracer: Optional[Any] = None
        self._trace_tid = f"core{core_id}"

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first dispatch (called by the System)."""
        if self.finished:
            if self.on_finish is not None:
                self.on_finish(self)
            return
        self.engine.at(self.start_offset, self._dispatch)

    def stop(self) -> None:
        """Stop dispatching new work (all cores' measured regions done)."""
        self._stopped = True

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """IPC over the measured region (valid once ``finished``)."""
        cycles = self.finish_time - self.measure_start_time
        return self.retired_instructions / cycles if cycles > 0 else 0.0

    @property
    def measured_cycles(self) -> int:
        return self.finish_time - self.measure_start_time

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Consume records while the ROB has room, pacing the front end.

        The loop keeps its counters in locals (written back on exit):
        nothing downstream of ``l1.access`` runs synchronously back into
        this core, so the object state only needs to be coherent between
        dispatch rounds, not between loop iterations.
        """
        if self._stopped:
            return
        engine = self.engine
        now = engine.now
        width = self.cfg.issue_width
        rob_limit = self.cfg.rob_entries
        l1_access = self.l1.access
        rob_append = self._rob.append
        core_id = self.core_id
        callback = self._complete_callback
        records = self.records
        n_records = len(records)
        replay = self.replay
        warmup = self.warmup_records
        measure_end = warmup + self.measure_records
        tracer = self.tracer
        trace_tid = self._trace_tid
        idx = self._idx
        rob_occ = self._rob_occ
        front_time = self._front_time
        dispatched = self.dispatched_records
        try:
            while True:
                if dispatched >= measure_end and not replay:
                    return
                if idx >= n_records:
                    if not replay:
                        return
                    idx = 0
                rec = records[idx]
                slots = rec.gap + 1
                if rob_occ + slots > rob_limit:
                    return              # retirement will re-trigger dispatch
                idx += 1
                measured = warmup <= dispatched < measure_end
                dispatched += 1
                self.dispatched_instructions += slots
                rob_occ += slots
                entry = _RobEntry(slots, measured)
                rob_append(entry)
                if front_time < now:
                    front_time = now + slots / width
                else:
                    front_time += slots / width
                issue_cycle = ceil(front_time)
                if issue_cycle < now:
                    issue_cycle = now
                req = MemRequest(rec.addr, rec.pc, core_id,
                                 _RFO if rec.is_write else _LOAD,
                                 issue_cycle, callback)
                req.rob_entry = entry
                if tracer is not None and tracer.take():
                    req.trace = True
                    tracer.span_begin(req, trace_tid, issue_cycle)
                prev = self._prev_entry
                self._prev_entry = entry
                if rec.dep and prev is not None and not prev.done:
                    # Address-dependent load: the pointer value arrives only
                    # when the previous access completes; hold the issue.
                    if prev.deferred is None:
                        prev.deferred = []
                    prev.deferred.append(req)
                elif issue_cycle > now:
                    engine.post(issue_cycle, l1_access, req)
                else:
                    l1_access(req)
        finally:
            self._idx = idx
            self._rob_occ = rob_occ
            self._front_time = front_time
            self.dispatched_records = dispatched

    def _complete_cb(self, req: MemRequest, _time: int) -> None:
        if req.trace and self.tracer is not None:
            self.tracer.span_end(req, self._trace_tid, self.engine.now)
        entry = req.rob_entry
        entry.done = True
        if entry.deferred:
            for dep in entry.deferred:
                self.l1.access(dep)
            entry.deferred = None
        # Only the head's completion can retire or dispatch anything:
        # retirement is eager, so the head is never done between events,
        # and ``_dispatch`` stops only on a full ROB or for good, so a
        # completion that retires nothing frees no slot for it.
        if self._rob[0] is entry:
            self._retire()
            self._dispatch()

    def _retire(self) -> None:
        rob = self._rob
        now = self.engine.now
        while rob and rob[0].done:
            entry = rob.popleft()
            self._rob_occ -= entry.slots
            self.retired_records += 1
            if not self.warm:
                if self.retired_records >= self.warmup_records:
                    self.warm = True
                    self.measure_start_time = now
                    if self.on_warm is not None:
                        self.on_warm(self)
                continue
            if entry.measured and not self.finished:
                self.retired_instructions += entry.slots
                if (self.retired_records
                        >= self.warmup_records + self.measure_records):
                    self.finished = True
                    self.finish_time = now
                    if self.on_finish is not None:
                        self.on_finish(self)
