"""Replacement-policy interface shared by every scheme in the study.

The hooks mirror ChampSim's replacement API (which the paper's artifact
targets): victim selection on a miss, an update on every hit, an update on
every fill, and a notification when a valid block is evicted.  The LLC passes
concurrency measurements (the served miss's PMC and MLP-based cost) into
``on_fill`` so that CARE, M-CARE and SBAR can consume them; locality-only
policies simply ignore those fields.
"""

from __future__ import annotations

import random
from typing import List

from ..sim.request import AccessType

_LOAD = AccessType.LOAD
_RFO = AccessType.RFO
_WRITEBACK = AccessType.WRITEBACK


class PolicyAccess:
    """Everything a policy may look at for one access.

    ``pmc`` / ``mlp_cost`` / ``was_pure`` are only meaningful in ``on_fill``
    for demand/prefetch misses (they describe the miss that fetched the
    block); they are zero for writeback fills.

    A ``__slots__`` class rather than a dataclass: one is constructed per
    hit and two per fill, which puts construction on the simulator's hot
    path.
    """

    __slots__ = ("pc", "addr", "core", "rtype", "prefetch", "pmc",
                 "mlp_cost", "was_pure", "next_use")

    def __init__(self, pc: int, addr: int, core: int, rtype: AccessType,
                 prefetch: bool = False, pmc: float = 0.0,
                 mlp_cost: float = 0.0, was_pure: bool = False,
                 next_use: int = -1) -> None:
        self.pc = pc
        self.addr = addr
        self.core = core
        self.rtype = rtype
        self.prefetch = prefetch    # block being filled by / hit by a prefetch
        self.pmc = pmc
        self.mlp_cost = mlp_cost
        self.was_pure = was_pure
        self.next_use = next_use    # future knowledge (standalone sim; OPT)

    @property
    def is_writeback(self) -> bool:
        return self.rtype == _WRITEBACK

    @property
    def is_demand(self) -> bool:
        return self.rtype in (_LOAD, _RFO)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PolicyAccess(pc={self.pc:#x}, addr={self.addr:#x}, "
                f"core={self.core}, rtype={self.rtype!r})")


class ReplacementPolicy:
    """Base class; concrete schemes override the four hooks."""

    #: registry key; subclasses set this
    name = "base"

    def __init__(self, sets: int, ways: int, seed: int = 0) -> None:
        if sets < 1 or ways < 1:
            raise ValueError("sets and ways must be >= 1")
        self.sets = sets
        self.ways = ways
        self.rng = random.Random(seed ^ 0x5EED)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def find_victim(self, set_idx: int, blocks: List["CacheBlock"],
                    access: PolicyAccess) -> int:
        """Pick the way to evict.  Called only when the set is full of valid
        blocks (the cache uses invalid ways first)."""
        raise NotImplementedError

    def on_hit(self, set_idx: int, way: int, blocks: List["CacheBlock"],
               access: PolicyAccess) -> None:
        """An access hit ``blocks[way]``."""

    def on_fill(self, set_idx: int, way: int, blocks: List["CacheBlock"],
                access: PolicyAccess) -> None:
        """A new block was just installed in ``blocks[way]``."""

    def on_evict(self, set_idx: int, way: int, blocks: List["CacheBlock"],
                 access: PolicyAccess) -> None:
        """``blocks[way]`` (still valid) is about to be replaced."""

    # ------------------------------------------------------------------
    def check_way(self, way: int) -> int:
        if not 0 <= way < self.ways:
            raise ValueError(f"{self.name}: victim way {way} out of range")
        return way


__all__ = ["PolicyAccess", "ReplacementPolicy"]
