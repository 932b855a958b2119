"""Canonical memory access patterns used to synthesize benchmark traces.

Real SPEC binaries are mixtures of a handful of archetypal behaviors —
sequential streaming, fixed strides, pointer chasing, hot/cold working sets,
repeated scans.  Each :class:`Pattern` below models one archetype as a
stateful address generator with its *own stable set of PCs*, because the
property every studied scheme (SHiP++, Hawkeye, Glider, CARE) exploits is
that behavior correlates with the issuing PC.

A :class:`WorkloadMix` interleaves several patterns by weight, assigns each
pattern a disjoint address region and PC range, and draws per-record compute
gaps — producing a :class:`~repro.workloads.trace.Trace`.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .trace import Trace
from ..sim.config import BLOCK_SIZE

#: element size used when walking arrays (8-byte doubles / pointers)
ELEM = 8
ELEMS_PER_BLOCK = BLOCK_SIZE // ELEM


class Pattern:
    """One archetypal access stream.

    Subclasses implement :meth:`step`, returning
    ``(pc_offset, element_index, is_write, dep)`` relative to the pattern's
    PC base and address region; the composer translates both.  ``dep``
    marks address-dependent loads (pointer chasing) that serialize in the
    core.
    """

    #: how many distinct PCs this pattern uses
    n_pcs = 1

    def __init__(self, region_elems: int, write_fraction: float = 0.0) -> None:
        if region_elems < 1:
            raise ValueError("region_elems must be >= 1")
        self.region_elems = region_elems
        self.write_fraction = write_fraction

    def step(self, rng: random.Random) -> Tuple[int, int, bool, bool]:
        raise NotImplementedError

    def _maybe_write(self, rng: random.Random) -> bool:
        return self.write_fraction > 0 and rng.random() < self.write_fraction


class StreamPattern(Pattern):
    """Sequential walk over a large region (libquantum/lbm/bwaves style)."""

    n_pcs = 2

    def __init__(self, region_elems: int, write_fraction: float = 0.0,
                 stride_elems: int = 1) -> None:
        super().__init__(region_elems, write_fraction)
        if stride_elems < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride_elems
        self._pos = 0

    def step(self, rng: random.Random) -> Tuple[int, int, bool, bool]:
        idx = self._pos
        self._pos = (self._pos + self.stride) % self.region_elems
        write = self._maybe_write(rng)
        return (1 if write else 0, idx, write, False)


class StridePattern(Pattern):
    """Fixed multi-block stride (stencil codes: cactus, wrf)."""

    n_pcs = 2

    def __init__(self, region_elems: int, write_fraction: float = 0.0,
                 stride_blocks: int = 2) -> None:
        super().__init__(region_elems, write_fraction)
        self.stride_elems = stride_blocks * ELEMS_PER_BLOCK
        self._pos = 0

    def step(self, rng: random.Random) -> Tuple[int, int, bool, bool]:
        idx = self._pos
        self._pos = (self._pos + self.stride_elems) % self.region_elems
        write = self._maybe_write(rng)
        return (1 if write else 0, idx, write, False)


class RandomPattern(Pattern):
    """Uniform random touches over a region (sparse/irregular kernels)."""

    n_pcs = 2

    def step(self, rng: random.Random) -> Tuple[int, int, bool, bool]:
        idx = rng.randrange(self.region_elems)
        write = self._maybe_write(rng)
        return (1 if write else 0, idx, write, False)


class PointerChasePattern(Pattern):
    """Permutation-cycle walk: each node names the next (mcf/omnetpp/astar).

    Nodes are spread one per block so every hop changes cache block, and the
    permutation is seeded per instance so reuse distance equals the cycle
    length — LLC-hostile when the node count exceeds the cache.
    """

    n_pcs = 2

    def __init__(self, region_elems: int, write_fraction: float = 0.0,
                 seed: int = 0) -> None:
        super().__init__(region_elems, write_fraction)
        self.n_nodes = max(2, region_elems // ELEMS_PER_BLOCK)
        rng = random.Random(seed ^ 0xC4A5E)
        # Sattolo's algorithm: a uniformly random *single-cycle* permutation,
        # so the walk visits every node and the reuse distance of each block
        # is exactly the node count.
        perm = list(range(self.n_nodes))
        for i in range(self.n_nodes - 1, 0, -1):
            j = rng.randrange(i)
            perm[i], perm[j] = perm[j], perm[i]
        self._next = perm
        self._cur = 0

    def step(self, rng: random.Random) -> Tuple[int, int, bool, bool]:
        idx = self._cur * ELEMS_PER_BLOCK
        self._cur = self._next[self._cur]
        write = self._maybe_write(rng)
        return (1 if write else 0, idx, write, True)


class HotColdPattern(Pattern):
    """Small hot set + large cold set (bzip2/x264/hmmer style).

    ``hot_fraction`` of accesses go to the first ``hot_elems`` elements; the
    hot and cold halves use different PCs, which is precisely the structure
    PC-signature schemes learn.
    """

    n_pcs = 4

    def __init__(self, region_elems: int, hot_elems: int,
                 hot_fraction: float = 0.9,
                 write_fraction: float = 0.0) -> None:
        super().__init__(region_elems, write_fraction)
        if not 0 < hot_elems <= region_elems:
            raise ValueError("hot_elems out of range")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction out of range")
        self.hot_elems = hot_elems
        self.hot_fraction = hot_fraction

    def step(self, rng: random.Random) -> Tuple[int, int, bool, bool]:
        write = self._maybe_write(rng)
        if rng.random() < self.hot_fraction:
            idx = rng.randrange(self.hot_elems)
            pc = 0 if not write else 1
        else:
            idx = self.hot_elems + rng.randrange(
                max(1, self.region_elems - self.hot_elems))
            pc = 2 if not write else 3
        return (pc, idx, write, False)


class ZipfianPattern(Pattern):
    """Zipf-distributed touches over a keyed object store (serving tier).

    Key popularity follows the classic power law ``P(rank k) ∝ 1/k^theta``
    (YCSB's request distribution; ``theta`` ≈ 0.99 for web/KV serving).
    Objects sit one per cache block and popularity ranks are scattered
    over the region by a seeded permutation, so the hot head is *not*
    physically contiguous — exactly the layout a serving tier's slab
    allocator produces.  Head and tail keys use distinct PCs (the hit
    fast path vs. the fill path), which is the structure PC-signature
    schemes learn.
    """

    n_pcs = 4

    def __init__(self, region_elems: int, theta: float = 0.99,
                 write_fraction: float = 0.0, seed: int = 0) -> None:
        super().__init__(region_elems, write_fraction)
        if theta <= 0.0:
            raise ValueError("theta must be > 0")
        self.theta = theta
        self.n_keys = max(2, region_elems // ELEMS_PER_BLOCK)
        cum: List[float] = []
        acc = 0.0
        for k in range(self.n_keys):
            acc += (k + 1) ** -theta
            cum.append(acc)
        self._cum = cum
        self._total = acc
        rng = random.Random(seed ^ 0x51AF5)
        slot = list(range(self.n_keys))
        rng.shuffle(slot)
        self._slot = slot
        self._head_ranks = max(1, self.n_keys // 64)

    def top_mass(self, fraction: float) -> float:
        """Access mass landing on the most popular ``fraction`` of keys."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        top = max(1, int(self.n_keys * fraction))
        return self._cum[min(top, self.n_keys) - 1] / self._total

    def step(self, rng: random.Random) -> Tuple[int, int, bool, bool]:
        x = rng.random() * self._total
        rank = min(bisect.bisect_left(self._cum, x), self.n_keys - 1)
        write = self._maybe_write(rng)
        pc = (0 if rank < self._head_ranks else 2) + (1 if write else 0)
        return (pc, self._slot[rank] * ELEMS_PER_BLOCK, write, False)


class ScanPattern(Pattern):
    """Repeated sequential scan of a fixed working set.

    With a working set slightly larger than the cache this is the classic
    LRU-thrash pattern that RRIP-family insertion fixes; with a smaller
    working set it is cache-friendly reuse.
    """

    n_pcs = 2

    def __init__(self, region_elems: int, write_fraction: float = 0.0) -> None:
        super().__init__(region_elems, write_fraction)
        self._pos = 0

    def step(self, rng: random.Random) -> Tuple[int, int, bool, bool]:
        idx = self._pos
        self._pos += ELEMS_PER_BLOCK      # one access per block per sweep
        if self._pos >= self.region_elems:
            self._pos = 0
        write = self._maybe_write(rng)
        return (1 if write else 0, idx, write, False)


@dataclass
class WeightedPattern:
    weight: float
    pattern: Pattern


class WorkloadMix:
    """Interleaves weighted patterns into one trace.

    Each pattern gets a disjoint, page-aligned address region and a disjoint
    PC range.  Gaps are drawn from a geometric-ish distribution with the
    requested mean, so instruction counts are realistic and bursty.
    """

    #: region spacing guard so patterns never collide (bytes)
    _REGION_ALIGN = 1 << 22

    def __init__(self, name: str, parts: Sequence[WeightedPattern],
                 mean_gap: float, seed: int = 0,
                 base_addr: int = 0x10000000, base_pc: int = 0x400000) -> None:
        if not parts:
            raise ValueError("need at least one pattern")
        if mean_gap < 0:
            raise ValueError("mean_gap must be >= 0")
        self.name = name
        self.parts = list(parts)
        self.mean_gap = mean_gap
        self.seed = seed
        # Each seed gets its own 4GB "address space" slot, so multi-copy
        # runs model separate processes (no accidental LLC sharing between
        # copies of the same benchmark).
        base_addr += ((seed * 2654435761) & 0x3F) << 32
        total = sum(p.weight for p in self.parts)
        if total <= 0:
            raise ValueError("pattern weights must sum to > 0")
        self._cum: List[float] = []
        acc = 0.0
        for p in self.parts:
            acc += p.weight / total
            self._cum.append(acc)
        # Region/PC assignment
        self._region_base: List[int] = []
        self._pc_base: List[int] = []
        addr = base_addr
        pc = base_pc
        for p in self.parts:
            self._region_base.append(addr)
            span = p.pattern.region_elems * ELEM
            addr += ((span // self._REGION_ALIGN) + 1) * self._REGION_ALIGN
            self._pc_base.append(pc)
            pc += 16 * max(1, p.pattern.n_pcs)

    def _pick(self, rng: random.Random) -> int:
        x = rng.random()
        for i, c in enumerate(self._cum):
            if x <= c:
                return i
        return len(self.parts) - 1

    def _gap(self, rng: random.Random) -> int:
        if self.mean_gap == 0:
            return 0
        # Geometric distribution with the requested mean, capped to keep
        # single records from dominating the ROB.
        g = int(rng.expovariate(1.0 / self.mean_gap))
        return min(g, 64)

    def generate(self, n_records: int, seed: Optional[int] = None) -> Trace:
        if seed is None:
            seed = self.seed
        rng = random.Random(seed)
        trace = Trace(self.name, seed=seed)
        add_pc, add_addr = trace.pc.append, trace.addr.append
        add_gap, add_flags = trace.gap.append, trace.flags.append
        write, dep_load = Trace.WRITE, Trace.DEP
        pick, draw_gap = self._pick, self._gap
        steps = [part.pattern.step for part in self.parts]
        for _ in range(n_records):
            i = pick(rng)
            pc_off, elem_idx, is_write, dep = steps[i](rng)
            add_pc(self._pc_base[i] + 4 * pc_off)
            add_addr(self._region_base[i] + elem_idx * ELEM)
            add_gap(draw_gap(rng))
            add_flags((write if is_write else 0) | (dep_load if dep else 0))
        return trace
