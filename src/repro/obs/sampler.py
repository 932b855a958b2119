"""Interval metrics sampler attached through the engine watcher hook.

Every ``interval`` simulated cycles the sampler appends one row to a
:class:`~repro.obs.schema.MetricsTable`: per-core IPC, per-cache MPKI /
occupancy / MSHR pressure, DRAM bandwidth and row-hit rate, the PML's
PMC distribution, and the DTRM threshold state (when the LLC policy
carries one, i.e. CARE/M-CARE).  Interval rates are computed from
counter *deltas*; the warmup boundary replaces the stats objects
(``System._core_warm``), which the delta helper treats as a counter
reset rather than a negative rate.

The sampler registers via :meth:`Engine.add_watcher`, so it composes
with the runtime sanitizer, and — like the sanitizer — it only *reads*
state: sampled runs are byte-identical to plain ones (asserted by the
golden-equivalence suite).  The watcher fires on event counts; the
sampler polls ``engine.now`` every ``event_poll`` events and samples
when a cycle boundary has passed, so the cycle grid is approximate to
within one poll quantum.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .schema import MetricsTable

#: Engine events between watcher polls (each poll is one comparison in
#: the common case, so this can stay small for good cycle resolution).
DEFAULT_EVENT_POLL = 128


def _delta(cur: float, prev: float) -> float:
    """Counter delta tolerating the warm-boundary stats reset."""
    d = cur - prev
    return d if d >= 0 else cur


class MetricsSampler:
    """Columnar time-series collector over one :class:`System`."""

    def __init__(self, system: Any, interval: int,
                 event_poll: int = DEFAULT_EVENT_POLL) -> None:
        if interval < 1:
            raise ValueError("metrics interval must be >= 1 cycle")
        self.system = system
        self.engine = system.engine
        self.interval = int(interval)
        self.event_poll = int(event_poll)
        self._poll_cb: Optional[Callable[[], None]] = self.poll
        self._next = ((self.engine.now // self.interval) + 1) * self.interval
        self._last_cycle = -1

        self.cores = list(system.cores)
        #: (column prefix, cache, core index or None for shared)
        self.caches: List[Tuple[str, Any, Optional[int]]] = (
            [("LLC", system.llc, None)]
            + [(l1.name, l1, i) for i, l1 in enumerate(system.l1s)]
            + [(l2.name, l2, i) for i, l2 in enumerate(system.l2s)])
        self.dtrm = getattr(system.llc_policy, "dtrm", None)

        columns: Dict[str, List[Any]] = {"cycle": [], "events": []}
        for i in range(len(self.cores)):
            columns[f"core{i}_ipc"] = []
        for name, _cache, _core in self.caches:
            columns[f"{name}_mpki"] = []
            columns[f"{name}_occ"] = []
            columns[f"{name}_mshr"] = []
        for key in ("dram_bw_bpc", "dram_row_hit_rate",
                    "pmc_mean", "pmr", "pmc_outstanding"):
            columns[key] = []
        from ..core.pmc import PMC_NUM_BINS
        for b in range(PMC_NUM_BINS):
            columns[f"pmc_bin{b}"] = []
        for key in ("dtrm_low", "dtrm_high", "dtrm_costly_share"):
            columns[key] = []
        self.table = MetricsTable(
            interval=self.interval, columns=columns,
            meta={
                "n_cores": len(self.cores),
                "caches": [name for name, _c, _i in self.caches],
                "policy": getattr(system.llc_policy, "name",
                                  type(system.llc_policy).__name__),
                "event_poll": self.event_poll,
                "has_dtrm": self.dtrm is not None,
            })

        # Previous-sample counter values for interval deltas ------------
        self._prev_cycle = self.engine.now
        self._prev_retired = [c.retired_instructions for c in self.cores]
        self._prev_instr = [c.dispatched_instructions for c in self.cores]
        self._prev_misses = [self._demand_misses(c) for _n, c, _i in self.caches]
        d = system.dram.stats
        self._prev_dram = (d.reads, d.writes, d.row_hits, d.row_misses)

    # ------------------------------------------------------------------
    # Engine hookup (same shape as the sanitizer)
    # ------------------------------------------------------------------
    def install(self) -> "MetricsSampler":
        self.engine.add_watcher(self._poll_cb, self.event_poll)
        return self

    def uninstall(self) -> None:
        """Unregister and drop every link into the system, so a finished
        machine is freed by reference counting; :attr:`table` stays."""
        if self.engine is not None:
            self.engine.remove_watcher(self._poll_cb)
        self.system = self.engine = self.dtrm = self._poll_cb = None
        self.cores = []
        self.caches = []

    # ------------------------------------------------------------------
    @staticmethod
    def _demand_misses(cache: Any) -> int:
        misses = cache.stats.misses
        return misses[0] + misses[1]        # LOAD + RFO (AccessType values)

    def poll(self) -> None:
        """Watcher body: sample when a cycle boundary has passed."""
        now = self.engine.now
        if now < self._next:
            return
        self.sample(now)
        self._next = ((now // self.interval) + 1) * self.interval

    def finalize(self) -> None:
        """Emit one last row at the final simulated cycle."""
        now = self.engine.now
        if now != self._last_cycle:
            self.sample(now)

    # ------------------------------------------------------------------
    def sample(self, now: int) -> None:
        """Append one row of interval metrics at cycle ``now``."""
        cols = self.table.columns
        dt = now - self._prev_cycle
        cols["cycle"].append(now)
        cols["events"].append(self.engine.events_processed)

        for i, core in enumerate(self.cores):
            retired = core.retired_instructions
            d_ret = _delta(retired, self._prev_retired[i])
            cols[f"core{i}_ipc"].append(
                round(d_ret / dt, 6) if dt > 0 else 0.0)
            self._prev_retired[i] = retired

        instr_now = [c.dispatched_instructions for c in self.cores]
        total_d_instr = sum(
            _delta(instr_now[i], self._prev_instr[i])
            for i in range(len(self.cores)))
        for idx, (name, cache, core_idx) in enumerate(self.caches):
            misses = self._demand_misses(cache)
            d_miss = _delta(misses, self._prev_misses[idx])
            self._prev_misses[idx] = misses
            if core_idx is None:
                d_instr = total_d_instr
            else:
                d_instr = _delta(instr_now[core_idx],
                                 self._prev_instr[core_idx])
            cols[f"{name}_mpki"].append(
                round(1000.0 * d_miss / d_instr, 6) if d_instr else 0.0)
            cfg = cache.cfg
            cols[f"{name}_occ"].append(
                round(sum(cache._valid_count) / (cfg.sets * cfg.ways), 6))
            cols[f"{name}_mshr"].append(
                round(len(cache.mshr._entries) / cache.mshr.capacity, 6))
        self._prev_instr = instr_now

        d = self.system.dram.stats
        reads, writes = d.reads, d.writes
        row_hits, row_misses = d.row_hits, d.row_misses
        d_xfers = (_delta(reads, self._prev_dram[0])
                   + _delta(writes, self._prev_dram[1]))
        d_hits = _delta(row_hits, self._prev_dram[2])
        d_rows = d_hits + _delta(row_misses, self._prev_dram[3])
        self._prev_dram = (reads, writes, row_hits, row_misses)
        cols["dram_bw_bpc"].append(
            round(64.0 * d_xfers / dt, 6) if dt > 0 else 0.0)
        cols["dram_row_hit_rate"].append(
            round(d_hits / d_rows, 6) if d_rows else 0.0)

        snap = self.system.monitor.snapshot()
        misses_total = snap["misses"]
        cols["pmc_mean"].append(
            round(snap["pmc_sum"] / misses_total, 6) if misses_total else 0.0)
        cols["pmr"].append(
            round(snap["pure_misses"] / snap["accesses"], 6)
            if snap["accesses"] else 0.0)
        cols["pmc_outstanding"].append(snap["outstanding"])
        for b, count in enumerate(snap["histogram"]):
            cols[f"pmc_bin{b}"].append(count)

        dtrm = self.dtrm
        if dtrm is None:
            cols["dtrm_low"].append(None)
            cols["dtrm_high"].append(None)
            cols["dtrm_costly_share"].append(None)
        else:
            state = dtrm.snapshot()
            cols["dtrm_low"].append(state["low"])
            cols["dtrm_high"].append(state["high"])
            total = state["total_misses"]
            cols["dtrm_costly_share"].append(
                round(state["total_costly"] / total, 6) if total else 0.0)

        self._prev_cycle = now
        self._last_cycle = now
