"""Memory request objects flowing through the hierarchy.

A core emits one :class:`MemRequest` per trace record; each cache level that
misses creates a *child* request toward the next level, wiring its own fill
handler as the child's callback.  Completion information that replacement
policies consume (the measured PMC / MLP-based cost of the miss, prefetch and
writeback provenance) is carried on the request.

``MemRequest`` is deliberately a ``__slots__`` class rather than a
dataclass: one is allocated per trace record per level, so construction
cost and attribute access are on the simulator's hot path.  ``block`` and
``is_demand`` are precomputed at construction instead of derived per use
(the hierarchy reads them several times per request), and the
``mshr_entry`` / ``rob_entry`` fields let the cache fill path and the
core completion path use cached bound methods as callbacks instead of
allocating a closure per miss.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Callable, Optional

from .config import BLOCK_BITS


class AccessType(IntEnum):
    """Request classes, mirroring ChampSim's demand/RFO/prefetch/writeback."""

    LOAD = 0
    RFO = 1          # store miss fetch (read-for-ownership)
    PREFETCH = 2
    WRITEBACK = 3

    @property
    def is_demand(self) -> bool:
        return self in (AccessType.LOAD, AccessType.RFO)


# Enum members bound once: a class-attribute read on an enum costs about
# ten times a module-global read, and the hot path compares per request.
_RFO = AccessType.RFO
_PREFETCH = AccessType.PREFETCH
_WRITEBACK = AccessType.WRITEBACK

_next_request_id = 0


class MemRequest:
    """One memory access in flight.

    ``callback(request, time)`` fires when the data is available to the
    requester.  Writebacks have no callback.
    """

    __slots__ = (
        "addr", "pc", "core", "rtype", "created", "callback", "req_id",
        "completed", "served_by", "block", "is_demand",
        "mshr_entry", "rob_entry", "trace",
    )

    def __init__(self, addr: int, pc: int, core: int, rtype: AccessType,
                 created: int = 0,
                 callback: Optional[Callable[["MemRequest", int], None]] = None,
                 req_id: Optional[int] = None) -> None:
        global _next_request_id
        self.addr = addr
        self.pc = pc
        self.core = core
        self.rtype = rtype
        self.created = created
        self.callback = callback
        if req_id is None:
            # SS601: a process-wide label counter, in a warm worker as in
            # a serial sweep.  Only the tracer and sanitizer messages read
            # req_id, so it never reaches a SimResult; save-states carry
            # it so resumed traces keep the uninterrupted numbering.
            _next_request_id += 1  # simsan: skip=SS601
            req_id = _next_request_id
        self.req_id = req_id

        # Filled in as the request is serviced ----------------------------
        self.completed = -1          # cycle data became available
        self.served_by = ""          # name of the level that supplied the data

        # Precomputed hot-path fields -------------------------------------
        self.block = addr >> BLOCK_BITS       # cache line number
        self.is_demand = rtype <= _RFO   # LOAD or RFO
        # set by Cache._start_miss on children / Core._dispatch on core
        # requests; typed Any to avoid import cycles on the hot path.
        self.mshr_entry: Optional[Any] = None
        self.rob_entry: Optional[Any] = None
        # True when the event tracer sampled this request's lifecycle;
        # propagated to child requests so spans nest across levels.
        self.trace = False

    @property
    def is_prefetch(self) -> bool:
        return self.rtype == _PREFETCH

    @property
    def is_writeback(self) -> bool:
        return self.rtype == _WRITEBACK

    def child(self, rtype: Optional[AccessType] = None,
              callback: Optional[Callable[["MemRequest", int], None]] = None,
              created: int = 0) -> "MemRequest":
        """A request for the same block sent to the next level down."""
        return MemRequest(
            self.addr,
            self.pc,
            self.core,
            self.rtype if rtype is None else rtype,
            created=created,
            callback=callback,
        )

    def respond(self, time: int, served_by: str = "") -> None:
        """Deliver data to the requester at ``time``."""
        self.completed = time
        if served_by:
            self.served_by = served_by
        if self.callback is not None:
            self.callback(self, time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemRequest(addr={self.addr:#x}, pc={self.pc:#x}, "
                f"core={self.core}, rtype={self.rtype!r}, "
                f"req_id={self.req_id})")
