"""Batched core: precomputed trace columns + struct-of-arrays ROB ring.

Behaviourally identical to :class:`~repro.sim.cpu.Core`; the differences
are representational (DESIGN.md §13):

* the trace is decomposed once into :class:`~.soa.TraceColumns` (numpy
  columns + scalar decode caches) instead of touching ``TraceRecord``
  tuples per dispatch; record type and fractional slot width are
  precomputed,
* the ROB is a numpy ``done``-flag ring indexed by dispatch ordinal
  instead of a deque of ``_RobEntry`` objects.  Because retirement is
  FIFO, the k-th retired record *is* the k-th dispatched record, so the
  per-entry ``slots`` and ``measured`` fields are recomputed at retire
  time from the ordinal alone (``slots = slots_l[k % n]``,
  ``measured = warmup <= k < measure_end``) — no allocation per record,
* dependence-deferred requests live in a sparse ``ordinal -> [req]``
  dict (the classic lazily-allocated ``_RobEntry.deferred`` list),
* completion + retirement + redispatch are fused into one callback.

The dispatch loop itself replicates the classic pacing arithmetic
verbatim (same fractional ``front_time`` accumulation, same ``ceil``)
so issue cycles are bit-identical.
"""

from __future__ import annotations

from math import ceil
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from .soa import TraceColumns
from ..config import CoreConfig
from ..request import MemRequest

if TYPE_CHECKING:
    from .cache import BatchedCache
    from ..engine import Engine


class BatchedCore:
    """One core consuming a memory-access trace (batched backend)."""

    __slots__ = (
        "core_id", "engine", "l1", "records", "cfg", "measure_records",
        "warmup_records", "replay", "start_offset", "on_finish", "on_warm",
        "_cols", "_done", "_ring_mask", "_deferred", "_idx", "_rob_occ",
        "_front_time", "_stopped",
        "dispatched_instructions", "dispatched_records", "retired_records",
        "retired_instructions", "warm", "measure_start_time", "finished",
        "finish_time", "_complete_callback", "tracer", "_trace_tid",
    )

    def __init__(self, core_id: int, engine: "Engine",
                 l1: "BatchedCache", records: Sequence, cfg: CoreConfig,
                 measure_records: Optional[int] = None,
                 warmup_records: int = 0,
                 replay: bool = True,
                 start_offset: int = 0,
                 on_finish: Optional[Callable[["BatchedCore"], None]] = None,
                 on_warm: Optional[Callable[["BatchedCore"], None]] = None
                 ) -> None:
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

        self._cols = TraceColumns(records, cfg.issue_width)
        # ROB ring: in-flight ordinals span [retired, dispatched), whose
        # width is bounded by rob_entries occupied slots (every record
        # takes >= 1), so a power-of-two ring > rob_entries never aliases.
        cap = 1
        while cap < cfg.rob_entries + 1:
            cap <<= 1
        self._ring_mask = cap - 1
        self._done = np.zeros(cap, dtype=np.uint8)
        self._deferred = {}     # dispatch ordinal -> [MemRequest, ...]

        self._idx = 0
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

        self._complete_callback = self._complete_cb
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

        Counters live in locals (written back on exit): nothing
        downstream of ``l1.access`` runs synchronously back into this
        core, so object state only needs to be coherent between dispatch
        rounds.  ``retired_records`` cannot advance inside the loop, so
        the previous-record done check reads the ring directly.
        """
        if self._stopped:
            return
        engine = self.engine
        now = engine.now
        rob_limit = self.cfg.rob_entries
        cols = self._cols
        slots_l = cols.slots_l
        slotw_l = cols.slotw_l
        addr_l = cols.addr_l
        pc_l = cols.pc_l
        rtype_l = cols.rtype_l
        dep_l = cols.dep_l
        n_records = cols.n
        l1_access = self.l1.access
        post = engine.post
        core_id = self.core_id
        callback = self._complete_callback
        replay = self.replay
        measure_end = self.warmup_records + self.measure_records
        tracer = self.tracer
        trace_tid = self._trace_tid
        done = self._done
        mask = self._ring_mask
        tail = self.retired_records
        idx = self._idx
        rob_occ = self._rob_occ
        front_time = self._front_time
        dispatched = self.dispatched_records
        dispatched_instr = self.dispatched_instructions
        try:
            while True:
                if dispatched >= measure_end and not replay:
                    return
                if idx >= n_records:
                    if not replay:
                        return
                    idx = 0
                slots = slots_l[idx]
                if rob_occ + slots > rob_limit:
                    return          # retirement will re-trigger dispatch
                dispatched_instr += slots
                rob_occ += slots
                done[dispatched & mask] = 0
                if front_time < now:
                    front_time = now + slotw_l[idx]
                else:
                    front_time += slotw_l[idx]
                issue_cycle = int(ceil(front_time))
                if issue_cycle < now:
                    issue_cycle = now
                req = MemRequest(addr_l[idx], pc_l[idx], core_id,
                                 rtype_l[idx], issue_cycle, callback)
                req.rob_entry = dispatched
                if tracer is not None and tracer.take():
                    req.trace = True
                    tracer.span_begin(req, trace_tid, issue_cycle)
                dep = dep_l[idx]
                idx += 1
                prev_ord = dispatched
                dispatched += 1
                prev_ord -= 1
                if (dep and prev_ord >= tail
                        and not done[prev_ord & mask]):
                    # Address-dependent load: the pointer value arrives
                    # only when the previous access completes; hold it.
                    deferred = self._deferred
                    lst = deferred.get(prev_ord)
                    if lst is None:
                        deferred[prev_ord] = [req]
                    else:
                        lst.append(req)
                elif issue_cycle > now:
                    post(issue_cycle, l1_access, req)
                else:
                    l1_access(req)
        finally:
            self._idx = idx
            self._rob_occ = rob_occ
            self._front_time = front_time
            self.dispatched_records = dispatched
            self.dispatched_instructions = dispatched_instr

    # ------------------------------------------------------------------
    def _complete_cb(self, req: MemRequest, _time: int) -> None:
        """Fused complete + deferred replay + retire + redispatch."""
        if req.trace and self.tracer is not None:
            self.tracer.span_end(req, self._trace_tid, self.engine.now)
        k = req.rob_entry
        done = self._done
        mask = self._ring_mask
        done[k & mask] = 1
        deferred = self._deferred
        if deferred:
            lst = deferred.pop(k, None)
            if lst is not None:
                l1_access = self.l1.access
                for dreq in lst:
                    l1_access(dreq)

        # ---- retire (classic `_retire`, ordinal-indexed) ----
        tail = self.retired_records
        head = self.dispatched_records
        if tail < head and done[tail & mask]:
            now = self.engine.now
            slots_l = self._cols.slots_l
            n_records = self._cols.n
            warmup = self.warmup_records
            measure_end = warmup + self.measure_records
            rob_occ = self._rob_occ
            warm = self.warm
            finished = self.finished
            retired_instr = self.retired_instructions
            while tail < head and done[tail & mask]:
                k2 = tail           # ordinal being retired
                slots = slots_l[k2 % n_records]
                rob_occ -= slots
                tail += 1
                if not warm:
                    if tail >= warmup:
                        warm = True
                        self.warm = True
                        self.measure_start_time = now
                        self.retired_records = tail
                        self._rob_occ = rob_occ
                        if self.on_warm is not None:
                            self.on_warm(self)
                    continue
                if warmup <= k2 < measure_end and not finished:
                    retired_instr += slots
                    if tail >= measure_end:
                        finished = True
                        self.finished = True
                        self.finish_time = now
                        self.retired_records = tail
                        self._rob_occ = rob_occ
                        self.retired_instructions = retired_instr
                        if self.on_finish is not None:
                            self.on_finish(self)
            self.retired_records = tail
            self._rob_occ = rob_occ
            self.retired_instructions = retired_instr

        self._dispatch()
