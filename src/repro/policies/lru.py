"""Least Recently Used replacement — the paper's baseline.

Implemented with per-block age counters (recency timestamps), the standard
"true LRU" that ChampSim's baseline uses and whose tag-store cost (4 bits per
block for 16 ways) appears in Table VI.
"""

from __future__ import annotations

from typing import List

from .base import PolicyAccess, ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    name = "lru"

    def __init__(self, sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(sets, ways, seed)
        self._stamp = [[0] * ways for _ in range(sets)]
        self._clock = 0

    def _touch(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def find_victim(self, set_idx: int, blocks, access: PolicyAccess) -> int:
        stamps = self._stamp[set_idx]
        return stamps.index(min(stamps))     # first (lowest) oldest way

    def on_hit(self, set_idx: int, way: int, blocks, access: PolicyAccess) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def on_fill(self, set_idx: int, way: int, blocks, access: PolicyAccess) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def recency_order(self, set_idx: int) -> List[int]:
        """Ways ordered MRU -> LRU (test/diagnostic helper)."""
        stamps = self._stamp[set_idx]
        return sorted(range(self.ways), key=lambda w: -stamps[w])
