#!/usr/bin/env python
"""Writing your own LLC policy and plugging it into the framework.

This is the extension path a downstream user takes: subclass
``ReplacementPolicy``, implement the four hooks, and hand the class to the
simulator.  The example builds "PMC-LRU" — plain LRU that refuses to evict
blocks whose fetching miss was expensive (high PMC) until they age out —
a ~30-line concurrency-aware policy, then races it against LRU and CARE.

    python examples/custom_policy.py
"""

from repro.analysis import format_table
from repro.policies.base import PolicyAccess, ReplacementPolicy
from repro.sim import SystemConfig, simulate
from repro.workloads import spec_trace


class PMCShieldedLRU(ReplacementPolicy):
    """LRU + a one-bit PMC shield.

    Blocks fetched by a costly miss (PMC above ``threshold``) get a shield
    bit; victim selection skips shielded blocks once, then clears their
    shield so nothing becomes immortal.
    """

    name = "pmc_lru"

    def __init__(self, sets: int, ways: int, seed: int = 0,
                 threshold: float = 100.0) -> None:
        super().__init__(sets, ways, seed)
        self.threshold = threshold
        self._stamp = [[0] * ways for _ in range(sets)]
        self._shield = [[False] * ways for _ in range(sets)]
        self._clock = 0

    def _touch(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def find_victim(self, set_idx: int, blocks, access: PolicyAccess) -> int:
        stamps = self._stamp[set_idx]
        shield = self._shield[set_idx]
        order = sorted(range(self.ways), key=lambda w: stamps[w])
        for way in order:                 # oldest unshielded block
            if not shield[way]:
                return way
        for way in order:                 # everyone shielded: spend shields
            shield[way] = False
        return order[0]

    def on_hit(self, set_idx: int, way: int, blocks, access: PolicyAccess) -> None:
        self._touch(set_idx, way)

    def on_fill(self, set_idx: int, way: int, blocks, access: PolicyAccess) -> None:
        self._touch(set_idx, way)
        self._shield[set_idx][way] = (
            not access.is_writeback and access.pmc > self.threshold)


def main() -> None:
    trace = spec_trace("429.mcf", n_records=10000, seed=7)
    cfg = SystemConfig.default(1)

    def factory(sets, ways, seed, n_cores):
        return PMCShieldedLRU(sets, ways, seed)

    rows = []
    base = None
    for label, policy in [("lru", "lru"), ("pmc_lru", factory),
                          ("care", "care")]:
        res = simulate([trace], cfg=cfg, llc_policy=policy,
                       prefetch=True, measure_records=5000,
                       warmup_records=5000, seed=1)
        if base is None:
            base = res.ipc[0]
        rows.append([label, f"{res.ipc[0]:.3f}", f"{res.ipc[0] / base:.3f}",
                     f"{res.mpki():.2f}", f"{res.pmr:.3f}"])
    print(format_table(["policy", "IPC", "vs LRU", "MPKI", "pMR"], rows))
    print("\nNote what usually happens here: the naive shield LOSES to "
          "plain LRU.\nProtecting blocks just because their miss was "
          "expensive backfires when those\nblocks are also dead (mcf's "
          "pointer chains are exactly that).  This is the\npaper's point: "
          "the cost signal only pays off combined with learned reuse\n"
          "(RC + PD in CARE's SHT), which is why CARE wins where this "
          "toy does not.")


if __name__ == "__main__":
    main()
