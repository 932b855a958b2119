"""DRAM: an FR-FCFS memory controller over a first-order timing model.

Models what matters for an LLC-replacement study: variable miss latency
from row-buffer locality and queue scheduling, bank-level parallelism, and
per-channel data-bus bandwidth (Table VII: 1 channel single-core, 2
channels multi-core, tRP/tRCD/tCAS converted to core cycles).  Like the
paper's simulator (ChampSim), the controller schedules row hits first:

* per-channel **read and write queues** with bounded capacity and
  back-pressure;
* **FR-FCFS** scheduling: the oldest row hit on a free bank, otherwise the
  oldest request on a free bank;
* **read priority** with write-drain hysteresis: writes buffer until the
  write queue passes a high-water mark, then drain in a burst until a
  low-water mark;
* a request holds its bank until its data burst ends, and bursts
  serialize on the channel's data bus.

Writebacks consume bank and bus time but generate no response.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, List, Optional

from .config import DRAMConfig
from .engine import Engine
from .request import AccessType, MemRequest

_WRITEBACK = AccessType.WRITEBACK


@dataclass
class DRAMStats:
    """Counts of completed requests; a request still queued or in service
    when the run ends is in none of them."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_read_latency: int = 0
    read_queue_full_stalls: int = 0
    write_drains: int = 0
    frfcfs_reorders: int = 0     # row hit chosen over an older request

    @property
    def row_hit_rate(self) -> float:
        n = self.row_hits + self.row_misses
        return self.row_hits / n if n else 0.0

    @property
    def mean_read_latency(self) -> float:
        return self.total_read_latency / self.reads if self.reads else 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DRAMStats":
        return cls(**data)


class _QueuedRequest:
    __slots__ = ("req", "arrival", "bank", "row")

    def __init__(self, req: MemRequest, arrival: int, bank: int, row: int):
        self.req = req
        self.arrival = arrival
        self.bank = bank
        self.row = row


class _Channel:
    __slots__ = ("open_row", "bank_busy", "bus_free", "read_q", "write_q",
                 "pending_reads", "draining")

    def __init__(self, banks: int) -> None:
        self.open_row = [-1] * banks
        self.bank_busy = [False] * banks
        self.bus_free = 0
        # Both queues hold requests in arrival order (a read that finds
        # its queue full waits in ``pending_reads``, which refills the
        # queue one for one), so the first match in a scan is the oldest.
        self.read_q: List[_QueuedRequest] = []
        self.write_q: List[_QueuedRequest] = []
        self.pending_reads: List[_QueuedRequest] = []
        self.draining = False


class DRAM:
    """Memory-side terminator of the hierarchy (``lower`` of the LLC)."""

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
        self.stats = DRAMStats()
        self.tracer: Optional[Any] = None   # optional repro.obs ChromeTracer
        self._channels = [
            _Channel(cfg.banks_per_channel) for _ in range(cfg.channels)
        ]

    # ------------------------------------------------------------------
    def access(self, req: MemRequest) -> None:
        cfg = self.cfg
        # Block-granular interleaving across channels, then banks.
        ch_idx = req.block % cfg.channels
        ch = self._channels[ch_idx]
        entry = _QueuedRequest(
            req, self.engine.now,
            (req.block // cfg.channels) % cfg.banks_per_channel,
            req.addr // cfg.row_size)
        if req.rtype == _WRITEBACK:
            if len(ch.write_q) >= self.write_queue:
                # A full write queue forces a drain phase.
                ch.draining = True
            ch.write_q.append(entry)
        elif len(ch.read_q) >= self.read_queue:
            self.stats.read_queue_full_stalls += 1
            ch.pending_reads.append(entry)
        else:
            ch.read_q.append(entry)
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
    def _select(self, ch: _Channel, queue: List[_QueuedRequest]) -> int:
        """FR-FCFS: the index of the oldest row hit on a free bank, else
        of the oldest request on a free bank, else -1."""
        bank_busy = ch.bank_busy
        open_row = ch.open_row
        oldest = -1
        for i, entry in enumerate(queue):
            bank = entry.bank
            if bank_busy[bank]:
                continue
            if open_row[bank] == entry.row:
                if oldest >= 0:
                    self.stats.frfcfs_reorders += 1
                return i
            if oldest < 0:
                oldest = i
        return oldest

    def _issue(self, ch_idx: int) -> None:
        """Start every request that can start right now."""
        cfg = self.cfg
        now = self.engine.now
        ch = self._channels[ch_idx]
        read_q = ch.read_q
        write_q = ch.write_q
        while True:
            if len(write_q) >= self.drain_high_mark:
                if not ch.draining:
                    self.stats.write_drains += 1
                ch.draining = True
            elif len(write_q) <= self.drain_low_mark:
                ch.draining = False
            use_writes = ch.draining or not read_q
            queue = write_q if use_writes else read_q
            i = self._select(ch, queue)
            if i < 0 and not use_writes and write_q:
                # No read can issue: try the writes opportunistically.
                queue = write_q
                i = self._select(ch, queue)
            if i < 0:
                return
            entry = queue.pop(i)
            bank = entry.bank
            open_row = ch.open_row[bank]
            row_hit = open_row == entry.row
            if row_hit:
                array_latency = cfg.t_cas
            elif open_row < 0:
                array_latency = cfg.t_rcd + cfg.t_cas
            else:
                array_latency = cfg.t_rp + cfg.t_rcd + cfg.t_cas
            ch.open_row[bank] = entry.row
            done = max(now + array_latency, ch.bus_free) + cfg.burst_cycles
            ch.bus_free = done
            ch.bank_busy[bank] = True
            # ``done > now`` always (positive array/burst latencies): safe
            # for the unchecked fast-path scheduler.
            self.engine.post(done, self._complete, ch_idx, entry, row_hit)
            if queue is read_q and ch.pending_reads:
                read_q.append(ch.pending_reads.pop(0))

    def _complete(self, ch_idx: int, entry: _QueuedRequest,
                  row_hit: bool) -> None:
        # The row outcome is counted here, with the read or write, so a
        # request in flight at the warmup reset or at the end of the run
        # is counted in both or in neither.
        self._channels[ch_idx].bank_busy[entry.bank] = False
        stats = self.stats
        if row_hit:
            stats.row_hits += 1
        else:
            stats.row_misses += 1
        req = entry.req
        if req.rtype == _WRITEBACK:
            stats.writes += 1
        else:
            done = self.engine.now
            stats.reads += 1
            stats.total_read_latency += done - entry.arrival
            if req.trace and self.tracer is not None:
                # Span covers queueing plus service: arrival to data-out.
                self.tracer.complete(req, self.name, entry.arrival,
                                     done - entry.arrival, channel=ch_idx,
                                     bank=entry.bank, row_hit=row_hit)
            req.respond(done, self.name)
        self._issue(ch_idx)
