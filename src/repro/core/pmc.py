"""Pure Miss Contribution measurement (the paper's Section IV).

This module implements the PMC Measurement Logic (PML) of Figure 4 /
Algorithm 1: the Access Detector (AD), the Pure Miss Detector (PMD) and the
PMC Calculation Unit (PCU), generalized to any cache level and any number of
cores.

Definitions (per core ``x`` at one cache level):

* A cache access spends ``base_latency`` *base access cycles* (tag + data
  lookup).  A miss additionally spends *miss access cycles* waiting for the
  next level.
* ``NoNewAccess_x`` is 1 in a cycle when no access from core ``x`` is in its
  base access cycles; such a cycle offers no overlap to hide miss latency.
* An *active pure miss cycle* for core ``x`` is a cycle with
  ``NoNewAccess_x == 1`` and at least one outstanding miss from core ``x``.
* In each active pure miss cycle the cycle's cost is divided evenly over the
  ``N_x`` outstanding misses from core ``x``: each accumulates ``1 / N_x``
  into its PMC (Algorithm 1).
* A miss with at least one pure miss cycle is a *pure miss*; the
  *pure miss rate* is ``pMR = pure misses / total accesses``.

Hardware walks this per cycle; iterating Python per cycle is infeasible, so
we accrue over *intervals* between state changes (base-phase begin/end, miss
begin/end).  Within an interval both ``NoNewAccess_x`` and ``N_x`` are
constant, so accruing ``Δt / N_x`` per outstanding miss is exactly the sum of
the per-cycle updates — the per-cycle algorithm is the ``Δt = 1`` special
case.  The same sweep accrues the MLP-based cost of Qureshi et al. (each
outstanding miss receives ``Δt / N_misses`` over its miss cycles regardless
of base-cycle overlap), which feeds SBAR and M-CARE.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..sim.engine import Engine
from ..sim.mshr import MSHREntry

#: Fig. 5 uses eight 50-cycle PMC bins: 0-49, 50-99, ..., 300-349, 350+.
PMC_BIN_WIDTH = 50
PMC_NUM_BINS = 8


def pmc_bin(pmc: float) -> int:
    """Histogram bin index (0-based) for a PMC value, per Fig. 5's x-axis."""
    if pmc < 0:
        raise ValueError(f"negative PMC {pmc}")
    return min(int(pmc // PMC_BIN_WIDTH), PMC_NUM_BINS - 1)


@dataclass
class CoreConcurrencyStats:
    """Aggregated per-core measurements exported after a run."""

    accesses: int = 0                 # all accesses seen at this level
    demand_accesses: int = 0
    misses: int = 0                   # MSHR-entry misses completed
    pure_misses: int = 0
    hit_miss_overlap_misses: int = 0  # misses with >=1 hidden miss cycle
    pure_miss_cycles: float = 0.0     # total active pure miss cycles
    active_cycles: float = 0.0        # cycles with any memory activity
    overlap_cycle_sum: float = 0.0    # Σ per-access overlapped cycles (AOCPA num.)
    pmc_sum: float = 0.0
    mlp_sum: float = 0.0
    pmc_histogram: List[int] = field(default_factory=lambda: [0] * PMC_NUM_BINS)

    @property
    def pure_miss_rate(self) -> float:
        """pMR = pure misses / total accesses (paper Section IV-A)."""
        return self.pure_misses / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def mean_pmc(self) -> float:
        """Average PMC over completed misses (Table X's PMC row)."""
        return self.pmc_sum / self.misses if self.misses else 0.0

    @property
    def mean_mlp_cost(self) -> float:
        return self.mlp_sum / self.misses if self.misses else 0.0

    @property
    def aocpa(self) -> float:
        """Average Overlapping Cycles Per Access (Table XI).

        For each access, the cycles of its lifetime during which at least one
        other access from the same core is outstanding at this level,
        averaged over all accesses.
        """
        return self.overlap_cycle_sum / self.accesses if self.accesses else 0.0

    @property
    def hit_miss_overlap_fraction(self) -> float:
        """Fraction of misses with hit-miss overlapping (Fig. 3)."""
        return self.hit_miss_overlap_misses / self.misses if self.misses else 0.0

    def to_dict(self) -> Dict:
        return {
            "accesses": self.accesses,
            "demand_accesses": self.demand_accesses,
            "misses": self.misses,
            "pure_misses": self.pure_misses,
            "hit_miss_overlap_misses": self.hit_miss_overlap_misses,
            "pure_miss_cycles": self.pure_miss_cycles,
            "active_cycles": self.active_cycles,
            "overlap_cycle_sum": self.overlap_cycle_sum,
            "pmc_sum": self.pmc_sum,
            "mlp_sum": self.mlp_sum,
            "pmc_histogram": list(self.pmc_histogram),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CoreConcurrencyStats":
        return cls(**data)


class _CoreMonitor:
    """PML instance for one core (the paper places one per core)."""

    __slots__ = (
        "core", "last_time", "base_count", "misses", "stats",
        "_last_pmc_by_pc", "pmc_deltas",
    )

    def __init__(self, core: int, collect_deltas: bool) -> None:
        self.core = core
        self.last_time = 0
        self.base_count = 0                 # accesses currently in base phase
        self.misses: Set[MSHREntry] = set() # outstanding misses (miss phase)
        self.stats = CoreConcurrencyStats()
        self._last_pmc_by_pc: Optional[Dict[int, float]] = (
            {} if collect_deltas else None
        )
        self.pmc_deltas: List[float] = []

    # ------------------------------------------------------------------
    def accrue(self, now: int) -> None:
        """Advance the sweep to ``now``, distributing interval costs."""
        dt = now - self.last_time
        if dt <= 0:
            # Events fire in time order, so ``now`` can never be behind
            # ``last_time``; a zero interval has nothing to distribute.
            return
        self.last_time = now
        n_miss = len(self.misses)
        n_total = self.base_count + n_miss
        if n_total > 0:
            self.stats.active_cycles += dt
            if n_total >= 2:
                # every outstanding access overlaps with >=1 other access
                self.stats.overlap_cycle_sum += dt * n_total
        if n_miss == 0:
            return
        if n_miss == 1:
            # Single-outstanding-miss fast path (the overwhelmingly common
            # interval shape): the sole entry takes the whole interval.
            # ``x += dt`` with integer ``dt`` is bit-identical to
            # ``x += dt / 1``.  Set iteration here only extracts the sole
            # element, so ordering cannot matter.
            for entry in self.misses:  # simsan: skip=SS103
                break
            if self.base_count == 0:
                self.stats.pure_miss_cycles += dt
                entry.pmc += dt
                entry.mlp_cost += dt
                entry.is_pure = True
            else:
                entry.mlp_cost += dt
            return
        mlp_share = dt / n_miss
        if self.base_count == 0:
            # NoNewAccess_x == 1: active pure miss cycles (Algorithm 1)
            self.stats.pure_miss_cycles += dt
            pmc_share = dt / n_miss
            # Each entry accumulates an identical share: the update is
            # commutative across entries, so set order is immaterial.
            for entry in self.misses:  # simsan: skip=SS103
                entry.pmc += pmc_share
                entry.mlp_cost += mlp_share
                entry.is_pure = True
        else:
            for entry in self.misses:  # simsan: skip=SS103 (uniform update)
                entry.mlp_cost += mlp_share

    def finish_miss(self, entry: MSHREntry) -> None:
        """Record a completed miss into the aggregate statistics."""
        st = self.stats
        st.misses += 1
        st.pmc_sum += entry.pmc
        st.mlp_sum += entry.mlp_cost
        st.pmc_histogram[pmc_bin(entry.pmc)] += 1
        if entry.is_pure:
            st.pure_misses += 1
        if entry.hit_miss_overlap:
            st.hit_miss_overlap_misses += 1
        if self._last_pmc_by_pc is not None:
            pc = entry.primary.pc
            prev = self._last_pmc_by_pc.get(pc)
            if prev is not None:
                self.pmc_deltas.append(abs(entry.pmc - prev))
            self._last_pmc_by_pc[pc] = entry.pmc


class ConcurrencyMonitor:
    """PML attached to one cache level, tracking every core independently.

    The cache calls :meth:`on_access` when an access begins its base cycles,
    :meth:`on_miss_start` when an MSHR entry is allocated (miss cycles begin
    after the base cycles), and :meth:`on_miss_end` when the fill arrives.
    """

    def __init__(self, engine: Engine, n_cores: int, base_latency: int,
                 collect_deltas: bool = True) -> None:
        if base_latency < 1:
            raise ValueError("base_latency must be >= 1")
        self.engine = engine
        self.base_latency = base_latency
        self.n_cores = n_cores
        self._cores = [_CoreMonitor(c, collect_deltas) for c in range(n_cores)]
        self._post = engine.post
        #: cycle of the warmup boundary (:meth:`reset_stats`)
        self._measure_start = 0
        #: ``None`` once :meth:`release` ran
        self._base_end_cb: Any = self._base_end

    # ------------------------------------------------------------------
    # Hooks called by the cache
    # ------------------------------------------------------------------
    def on_access(self, core: int, time: int, demand: bool = True) -> None:
        """An access from ``core`` starts its base access cycles at ``time``.

        The Access Detector monitors for the level's fixed base latency and
        clears ``NoNewAccess`` for that window.
        """
        mon = self._cores[core]
        mon.accrue(time)
        mon.base_count += 1
        st = mon.stats
        st.accesses += 1
        if demand:
            st.demand_accesses += 1
        self._post(time + self.base_latency, self._base_end_cb, core)

    def _base_end(self, core: int) -> None:
        mon = self._cores[core]
        mon.accrue(self.engine.now)
        mon.base_count -= 1
        if mon.base_count < 0:
            raise RuntimeError("base access count underflow")

    def on_hit_observed(self, core: int, time: int) -> None:
        """A lookup from ``core`` just resolved as a hit (Fig. 3 statistic).

        The hit's base access cycles were ``[time - base_latency, time)``;
        every miss from the same core outstanding during that window had
        miss cycles hidden under a *hit's* base cycles — the paper's
        "hit-miss overlapping".  (Misses that completed mid-window are not
        recovered; the approximation undercounts slightly.)
        """
        for entry in self._cores[core].misses:
            if entry.issue_time < time:
                entry.hit_miss_overlap = True

    def on_miss_start(self, core: int, time: int, entry: MSHREntry) -> None:
        """``entry`` begins its miss access cycles (MSHR allocated)."""
        mon = self._cores[core]
        mon.accrue(time)
        mon.misses.add(entry)

    def on_miss_end(self, core: int, time: int, entry: MSHREntry) -> None:
        """The fill for ``entry`` arrived; its PMC value is now final.

        A miss issued before the warmup boundary is not counted in the
        measured region's statistics (its PMC still reaches the policy).
        """
        mon = self._cores[core]
        mon.accrue(time)
        mon.misses.discard(entry)
        if entry.issue_time >= self._measure_start:
            mon.finish_miss(entry)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Accrue every core up to the current cycle (end of simulation)."""
        for mon in self._cores:
            mon.accrue(self.engine.now)

    def reset_stats(self) -> None:
        """Zero the aggregates at the warmup boundary.

        Outstanding base/miss state is preserved (those accesses are still
        in flight and keep accruing PMC); only the counters restart, and a
        miss issued before this cycle is not counted when it completes, so
        measured-region statistics exclude cold-start effects — mirroring
        the paper's 50M-instruction warmup before its 200M-instruction
        measurement.
        """
        self._measure_start = self.engine.now
        for mon in self._cores:
            mon.accrue(self.engine.now)
            mon.stats = CoreConcurrencyStats()
            mon.pmc_deltas.clear()

    def release(self) -> None:
        """Drop the cached self-callback and the misses still
        outstanding at the end of a completed run; the statistics stay
        readable."""
        self._base_end_cb = None
        for mon in self._cores:
            mon.misses.clear()

    def core_stats(self, core: int) -> CoreConcurrencyStats:
        return self._cores[core].stats

    def all_stats(self) -> List[CoreConcurrencyStats]:
        return [m.stats for m in self._cores]

    def pmc_deltas(self, core: int) -> List[float]:
        """|PMC delta| between consecutive misses per PC (Table III)."""
        return list(self._cores[core].pmc_deltas)

    def snapshot(self) -> Dict[str, object]:
        """Cheap read-only aggregate for the metrics sampler.

        Unlike :meth:`total` this avoids building a
        :class:`CoreConcurrencyStats` per call; it is invoked once per
        sampling interval mid-run and must not mutate anything.
        """
        accesses = misses = pure = outstanding = 0
        pmc_sum = 0.0
        histogram = [0] * PMC_NUM_BINS
        for mon in self._cores:
            s = mon.stats
            accesses += s.accesses
            misses += s.misses
            pure += s.pure_misses
            pmc_sum += s.pmc_sum
            outstanding += len(mon.misses)
            hist = s.pmc_histogram
            for i in range(PMC_NUM_BINS):
                histogram[i] += hist[i]
        return {"accesses": accesses, "misses": misses,
                "pure_misses": pure, "pmc_sum": pmc_sum,
                "outstanding": outstanding, "histogram": histogram}

    # Aggregates over all cores -----------------------------------------
    def total(self) -> CoreConcurrencyStats:
        agg = CoreConcurrencyStats()
        for m in self._cores:
            s = m.stats
            agg.accesses += s.accesses
            agg.demand_accesses += s.demand_accesses
            agg.misses += s.misses
            agg.pure_misses += s.pure_misses
            agg.hit_miss_overlap_misses += s.hit_miss_overlap_misses
            agg.pure_miss_cycles += s.pure_miss_cycles
            agg.active_cycles += s.active_cycles
            agg.overlap_cycle_sum += s.overlap_cycle_sum
            agg.pmc_sum += s.pmc_sum
            agg.mlp_sum += s.mlp_sum
            for i, v in enumerate(s.pmc_histogram):
                agg.pmc_histogram[i] += v
        return agg


def pmc_delta_summary(deltas: List[float]) -> Dict[str, float]:
    """Table III row for one workload: bucket shares and the median.

    Buckets: [0,50), [50,100), [100,150), >=150 cycles.
    """
    result = {"[0,50)": 0.0, "[50,100)": 0.0, "[100,150)": 0.0, ">=150": 0.0,
              "median": 0.0}
    if not deltas:
        return result
    n = len(deltas)
    buckets = defaultdict(int)
    for d in deltas:
        if d < 50:
            buckets["[0,50)"] += 1
        elif d < 100:
            buckets["[50,100)"] += 1
        elif d < 150:
            buckets["[100,150)"] += 1
        else:
            buckets[">=150"] += 1
    for key in ("[0,50)", "[50,100)", "[100,150)", ">=150"):
        result[key] = buckets[key] / n
    ordered = sorted(deltas)
    mid = n // 2
    result["median"] = (
        ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    return result
