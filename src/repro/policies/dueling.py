"""Set dueling (Qureshi et al., DIP) — shared by DRRIP and SBAR.

A small number of *leader sets* are hard-wired to each competing policy; a
saturating PSEL counter tallies which leader group misses less, and all
*follower sets* adopt the winner.  This is the adaptivity mechanism the
paper's baselines (DRRIP, SBAR) rely on.
"""

from __future__ import annotations

import random
from typing import List


class SetDuel:
    """Two-way set dueling over ``sets`` cache sets."""

    ROLE_A = 0
    ROLE_B = 1
    FOLLOWER = -1

    def __init__(self, sets: int, leaders_per_policy: int = 32,
                 psel_bits: int = 10, seed: int = 0) -> None:
        leaders_per_policy = min(leaders_per_policy, max(1, sets // 2))
        rng = random.Random(seed ^ 0xD0E1)
        chosen = rng.sample(range(sets), 2 * leaders_per_policy)
        self._role: List[int] = [self.FOLLOWER] * sets
        for s in chosen[:leaders_per_policy]:
            self._role[s] = self.ROLE_A
        for s in chosen[leaders_per_policy:]:
            self._role[s] = self.ROLE_B
        self._psel_max = (1 << psel_bits) - 1
        self._psel = self._psel_max // 2

    def role(self, set_idx: int) -> int:
        return self._role[set_idx]

    def on_miss(self, set_idx: int) -> None:
        """Account a miss: a miss in a leader set votes against its policy."""
        role = self._role[set_idx]
        if role == self.ROLE_A:
            self._psel = min(self._psel + 1, self._psel_max)
        elif role == self.ROLE_B:
            self._psel = max(self._psel - 1, 0)

    def choose(self, set_idx: int) -> int:
        """Which policy governs this set right now (ROLE_A or ROLE_B)."""
        role = self._role[set_idx]
        if role != self.FOLLOWER:
            return role
        # High PSEL means policy A has been missing more: follow B.
        return self.ROLE_B if self._psel > self._psel_max // 2 else self.ROLE_A

    @property
    def psel(self) -> int:
        return self._psel
