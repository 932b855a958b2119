"""FR-FCFS memory controller (queued alternative to the simple DRAM model).

:class:`~repro.sim.dram.DRAM` services requests in arrival order per bank —
adequate for most replacement studies, but queue scheduling shapes the miss
latencies PMC measures, so a real controller model is provided:

* per-channel **read and write queues** with bounded capacity and
  back-pressure,
* **FR-FCFS** scheduling: among issuable requests prefer row-buffer hits,
  then oldest-first,
* **read priority** with write-drain hysteresis: writes buffer until the
  write queue passes a high-water mark, then drain in a burst until a
  low-water mark (standard write-drain policy),
* bank-level parallelism with a shared per-channel data bus.

Select it with ``DRAMConfig(scheduler="frfcfs")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .config import DRAMConfig
from .dram import DRAMStats, _Bank
from .engine import Engine
from .request import AccessType, MemRequest

_WRITEBACK = AccessType.WRITEBACK


@dataclass
class ControllerStats(DRAMStats):
    read_queue_full_stalls: int = 0
    write_drains: int = 0
    frfcfs_reorders: int = 0     # row-hit chosen over an older request
    peak_read_queue: int = 0
    peak_write_queue: int = 0


class _QueuedRequest:
    __slots__ = ("req", "arrival", "row", "bank")

    def __init__(self, req: MemRequest, arrival: int, bank: int, row: int):
        self.req = req
        self.arrival = arrival
        self.bank = bank
        self.row = row


class _Channel:
    __slots__ = ("banks", "bank_busy", "bus_free", "read_q", "write_q",
                 "pending_reads", "draining")

    def __init__(self, banks: int) -> None:
        self.banks = [_Bank() for _ in range(banks)]
        self.bank_busy = [False] * banks
        self.bus_free = 0
        self.read_q: List[_QueuedRequest] = []
        self.write_q: List[_QueuedRequest] = []
        self.pending_reads: List[_QueuedRequest] = []  # blocked on full queue
        self.draining = False


class FRFCFSController:
    """Drop-in replacement for :class:`~repro.sim.dram.DRAM`."""

    __slots__ = ("cfg", "engine", "read_queue", "write_queue",
                 "drain_high_mark", "drain_low_mark", "stats", "_channels",
                 "tracer")

    name = "DRAM"

    def __init__(self, cfg: DRAMConfig, engine: Engine,
                 read_queue: int = 32, write_queue: int = 32,
                 drain_high: float = 0.75, drain_low: float = 0.25) -> None:
        if not 0.0 <= drain_low < drain_high <= 1.0:
            raise ValueError("bad drain hysteresis")
        self.cfg = cfg
        self.engine = engine
        self.read_queue = read_queue
        self.write_queue = write_queue
        self.drain_high_mark = max(1, int(drain_high * write_queue))
        self.drain_low_mark = int(drain_low * write_queue)
        self.stats = ControllerStats()
        self.tracer: Optional[Any] = None   # optional repro.obs ChromeTracer
        self._channels = [
            _Channel(cfg.banks_per_channel) for _ in range(cfg.channels)
        ]

    # ------------------------------------------------------------------
    def _route(self, addr: int) -> Tuple[int, int, int]:
        block = addr >> 6
        channel = block % self.cfg.channels
        bank = (block // self.cfg.channels) % self.cfg.banks_per_channel
        row = addr // self.cfg.row_size
        return channel, bank, row

    def access(self, req: MemRequest) -> None:
        now = self.engine.now
        ch_idx, bank, row = self._route(req.addr)
        ch = self._channels[ch_idx]
        entry = _QueuedRequest(req, now, bank, row)
        if req.rtype == _WRITEBACK:
            if len(ch.write_q) >= self.write_queue:
                # Oldest write merges conceptually; drop the new arrival's
                # queue slot pressure by forcing an immediate drain phase.
                ch.draining = True
            ch.write_q.append(entry)
            self.stats.peak_write_queue = max(self.stats.peak_write_queue,
                                              len(ch.write_q))
        else:
            if len(ch.read_q) >= self.read_queue:
                self.stats.read_queue_full_stalls += 1
                ch.pending_reads.append(entry)
            else:
                ch.read_q.append(entry)
                self.stats.peak_read_queue = max(self.stats.peak_read_queue,
                                                 len(ch.read_q))
        self._issue(ch_idx)

    def release(self) -> None:
        """Drop the requests still queued at the end of a completed run;
        their callbacks point back up the hierarchy."""
        for ch in self._channels:
            ch.read_q.clear()
            ch.write_q.clear()
            ch.pending_reads.clear()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _select(self, ch: _Channel, queue: List[_QueuedRequest]
                ) -> Optional[_QueuedRequest]:
        """FR-FCFS: oldest row-hit on a free bank, else oldest issuable."""
        best_hit: Optional[_QueuedRequest] = None
        best_any: Optional[_QueuedRequest] = None
        for entry in queue:
            if ch.bank_busy[entry.bank]:
                continue
            if best_any is None or entry.arrival < best_any.arrival:
                best_any = entry
            if ch.banks[entry.bank].open_row == entry.row:
                if best_hit is None or entry.arrival < best_hit.arrival:
                    best_hit = entry
        if best_hit is not None:
            if best_any is not None and best_hit is not best_any:
                self.stats.frfcfs_reorders += 1
            return best_hit
        return best_any

    def _update_drain_state(self, ch: _Channel) -> None:
        if len(ch.write_q) >= self.drain_high_mark:
            if not ch.draining:
                self.stats.write_drains += 1
            ch.draining = True
        elif len(ch.write_q) <= self.drain_low_mark:
            ch.draining = False

    def _issue(self, ch_idx: int) -> None:
        """Start every request that can start right now."""
        ch = self._channels[ch_idx]
        while True:
            self._update_drain_state(ch)
            use_writes = ch.draining or (not ch.read_q and ch.write_q)
            queue = ch.write_q if use_writes else ch.read_q
            entry = self._select(ch, queue)
            if entry is None and not use_writes and ch.write_q:
                # reads exist but none issuable: try writes opportunistically
                queue = ch.write_q
                entry = self._select(ch, queue)
            if entry is None:
                return
            queue.remove(entry)
            self._start(ch_idx, ch, entry)
            if queue is ch.read_q and ch.pending_reads:
                ch.read_q.append(ch.pending_reads.pop(0))

    def _start(self, ch_idx: int, ch: _Channel, entry: _QueuedRequest) -> None:
        cfg = self.cfg
        now = self.engine.now
        bank = ch.banks[entry.bank]
        if bank.open_row == entry.row:
            self.stats.row_hits += 1
            array_latency = cfg.t_cas
        elif bank.open_row < 0:
            self.stats.row_misses += 1
            array_latency = cfg.t_rcd + cfg.t_cas
        else:
            self.stats.row_misses += 1
            array_latency = cfg.t_rp + cfg.t_rcd + cfg.t_cas
        bank.open_row = entry.row
        burst_start = max(now + array_latency, ch.bus_free)
        done = burst_start + cfg.burst_cycles
        ch.bus_free = done
        ch.bank_busy[entry.bank] = True
        # ``done > now`` always (positive array/burst latencies): safe for
        # the unchecked fast-path scheduler.
        self.engine.post(done, self._complete, ch_idx, entry, done)

    def _complete(self, ch_idx: int, entry: _QueuedRequest, done: int) -> None:
        ch = self._channels[ch_idx]
        ch.bank_busy[entry.bank] = False
        ch.banks[entry.bank].next_free = done
        if entry.req.rtype == _WRITEBACK:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
            self.stats.total_read_latency += done - entry.arrival
            if entry.req.trace and self.tracer is not None:
                # Span covers queueing plus service: arrival to data-out.
                self.tracer.complete(entry.req, self.name, entry.arrival,
                                     done - entry.arrival,
                                     channel=ch_idx, bank=entry.bank)
            entry.req.respond(done, self.name)
        self._issue(ch_idx)


def make_memory(cfg: DRAMConfig, engine: Engine):
    """Factory honoring ``DRAMConfig.scheduler``."""
    from .dram import DRAM
    scheduler = getattr(cfg, "scheduler", "fcfs")
    if scheduler == "fcfs":
        return DRAM(cfg, engine)
    if scheduler == "frfcfs":
        return FRFCFSController(cfg, engine)
    raise ValueError(f"unknown DRAM scheduler {scheduler!r}")
