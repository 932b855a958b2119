"""First-order DRAM timing model.

Models what matters for an LLC-replacement study: variable miss latency from
row-buffer locality, bank-level parallelism, and per-channel data-bus
bandwidth (Table VII: 1 channel single-core, 2 channels multi-core,
tRP/tRCD/tCAS converted to core cycles).

Requests are serviced FCFS per bank.  A request occupies its bank until the
data burst finishes; bursts serialize on the channel data bus.  Writebacks
consume bank and bus time but generate no response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .config import DRAMConfig
from .engine import Engine
from .request import AccessType, MemRequest

_WRITEBACK = AccessType.WRITEBACK


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_read_latency: int = 0

    @property
    def row_hit_rate(self) -> float:
        n = self.row_hits + self.row_misses
        return self.row_hits / n if n else 0.0

    @property
    def mean_read_latency(self) -> float:
        return self.total_read_latency / self.reads if self.reads else 0.0

    def to_dict(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "total_read_latency": self.total_read_latency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DRAMStats":
        return cls(**data)


class _Bank:
    __slots__ = ("next_free", "open_row")

    def __init__(self) -> None:
        self.next_free = 0
        self.open_row = -1


class DRAM:
    """Memory-side terminator of the hierarchy (``lower`` of the LLC)."""

    __slots__ = ("cfg", "engine", "stats", "_banks", "_bus_free", "tracer")

    name = "DRAM"

    def __init__(self, cfg: DRAMConfig, engine: Engine) -> None:
        self.cfg = cfg
        self.engine = engine
        self.stats = DRAMStats()
        self.tracer: Optional[Any] = None   # optional repro.obs ChromeTracer
        self._banks: List[List[_Bank]] = [
            [_Bank() for _ in range(cfg.banks_per_channel)]
            for _ in range(cfg.channels)
        ]
        self._bus_free: List[int] = [0] * cfg.channels

    # ------------------------------------------------------------------
    def _route(self, addr: int) -> Tuple[int, int, int]:
        """Address interleaving: block-granular across channels, then banks."""
        block = addr >> 6
        channel = block % self.cfg.channels
        bank = (block // self.cfg.channels) % self.cfg.banks_per_channel
        row = addr // self.cfg.row_size
        return channel, bank, row

    def access(self, req: MemRequest) -> None:
        now = self.engine.now
        cfg = self.cfg
        channel, bank_idx, row = self._route(req.addr)
        bank = self._banks[channel][bank_idx]

        start = max(now, bank.next_free)
        if bank.open_row == row:
            self.stats.row_hits += 1
            array_latency = cfg.t_cas
        elif bank.open_row < 0:
            self.stats.row_misses += 1
            array_latency = cfg.t_rcd + cfg.t_cas
        else:
            self.stats.row_misses += 1
            array_latency = cfg.t_rp + cfg.t_rcd + cfg.t_cas
        bank.open_row = row

        burst_start = max(start + array_latency, self._bus_free[channel])
        done = burst_start + cfg.burst_cycles
        bank.next_free = done
        self._bus_free[channel] = done

        if req.rtype == _WRITEBACK:
            self.stats.writes += 1
            return
        self.stats.reads += 1
        self.stats.total_read_latency += done - now
        if req.trace and self.tracer is not None:
            # The full bank+bus occupancy is known synchronously, so the
            # DRAM span is emitted as a complete event right away.
            self.tracer.complete(req, self.name, now, done - now,
                                 channel=channel, bank=bank_idx,
                                 row_hit=array_latency == cfg.t_cas)
        # ``done > now`` always (positive array/burst latencies): safe for
        # the unchecked fast-path scheduler.
        self.engine.post(done, req.respond, done, self.name)

    def release(self) -> None:
        """Nothing to drop: in-flight reads wait only in the engine's
        calendar, which :meth:`Engine.release` clears."""
