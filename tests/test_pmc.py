"""PMC Measurement Logic vs. the paper's definitions.

The central correctness tests of the reproduction: the event-driven,
interval-accruing :class:`ConcurrencyMonitor` must agree *exactly* with the
per-cycle definition of Algorithm 1, which :func:`analyze_case` implements
directly with exact fractions.  We check the paper's own study case
(Tables I and II) and then hypothesis-generated random scenarios.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.studycase import CaseAccess, analyze_case
from repro.core.pmc import (
    PMC_NUM_BINS,
    ConcurrencyMonitor,
    pmc_bin,
    pmc_delta_summary,
)
from repro.sim import AccessType, Engine, MemRequest
from repro.sim.mshr import MSHREntry


def run_monitor(accesses, base=2, miss=6, core=0, n_cores=1):
    """Replay a study-case timeline through the real monitor."""
    eng = Engine()
    mon = ConcurrencyMonitor(eng, n_cores, base)
    entries = {}
    for i, a in enumerate(accesses):
        req = MemRequest(addr=i * 64, pc=0x100 + 4 * i, core=core,
                         rtype=AccessType.LOAD)
        eng.at(a.start, lambda c=core, t=a.start: mon.on_access(c, t))
        if a.is_miss:
            entry = MSHREntry(block=i, primary=req,
                              issue_time=a.start + base, core=core)
            entries[a.label] = entry
            eng.at(a.start + base,
                   lambda e=entry, t=a.start + base: mon.on_miss_start(core, t, e))
            end = a.start + base + miss
            eng.at(end, lambda e=entry, t=end: mon.on_miss_end(core, t, e))
    eng.run()
    mon.finalize()
    return mon, entries


class TestStudyCase:
    """Fig. 2 / Tables I and II through the real measurement logic."""

    def setup_method(self):
        self.case = [
            CaseAccess("A", 1, True),
            CaseAccess("B", 3, False),
            CaseAccess("C", 5, True),
            CaseAccess("D", 7, True),
            CaseAccess("E", 7, True),
            CaseAccess("F", 8, False),
        ]
        self.mon, self.entries = run_monitor(self.case)

    def test_pmc_values_match_table2(self):
        assert self.entries["A"].pmc == pytest.approx(0.0)
        assert self.entries["C"].pmc == pytest.approx(1.0)
        assert self.entries["D"].pmc == pytest.approx(2.0)
        assert self.entries["E"].pmc == pytest.approx(2.0)

    def test_mlp_costs_match_table1(self):
        assert self.entries["A"].mlp_cost == pytest.approx(5.0)
        for label in "CDE":
            assert self.entries[label].mlp_cost == pytest.approx(7 / 3)

    def test_active_pure_miss_cycles_is_five(self):
        assert self.mon.core_stats(0).pure_miss_cycles == pytest.approx(5.0)

    def test_only_cde_are_pure(self):
        assert not self.entries["A"].is_pure
        assert all(self.entries[l].is_pure for l in "CDE")

    def test_pmc_sum_equals_pure_cycles(self):
        total = sum(e.pmc for e in self.entries.values())
        assert total == pytest.approx(
            self.mon.core_stats(0).pure_miss_cycles)

    def test_aggregate_counters(self):
        stats = self.mon.core_stats(0)
        assert stats.accesses == 6
        assert stats.misses == 4
        assert stats.pure_misses == 3
        assert stats.pure_miss_rate == pytest.approx(0.5)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 8))
    base = draw(st.integers(1, 4))
    miss = draw(st.integers(1, 12))
    accesses = []
    for i in range(n):
        start = draw(st.integers(1, 30))
        is_miss = draw(st.booleans())
        accesses.append(CaseAccess(f"x{i}", start, is_miss))
    return accesses, base, miss


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_monitor_matches_per_cycle_oracle(scenario):
    """Interval accrual == per-cycle Algorithm 1, for arbitrary timelines."""
    accesses, base, miss = scenario
    oracle = analyze_case(accesses, base_cycles=base, miss_cycles=miss)
    mon, entries = run_monitor(accesses, base=base, miss=miss)
    stats = mon.core_stats(0)
    assert stats.pure_miss_cycles == pytest.approx(
        float(len(oracle.pure_miss_cycles)))
    for label, entry in entries.items():
        assert entry.pmc == pytest.approx(float(oracle.pmc[label])), label
        assert entry.mlp_cost == pytest.approx(
            float(oracle.mlp_cost[label])), label
        assert entry.is_pure == oracle.is_pure[label], label


def test_cores_are_tracked_independently():
    """Multi-core PML: core 1's hits cannot hide core 0's miss cycles."""
    case0 = [CaseAccess("m", 1, True)]
    # Alone: miss cycles 3-8 all pure -> PMC 6.
    mon, entries = run_monitor(case0)
    assert entries["m"].pmc == pytest.approx(6.0)

    # Now add core-1 traffic across the same cycles; core 0 unchanged.
    eng = Engine()
    mon = ConcurrencyMonitor(eng, 2, 2)
    req = MemRequest(addr=0, pc=0, core=0, rtype=AccessType.LOAD)
    entry = MSHREntry(block=0, primary=req, issue_time=3, core=0)
    eng.at(1, lambda: mon.on_access(0, 1))
    eng.at(3, lambda: mon.on_miss_start(0, 3, entry))
    eng.at(9, lambda: mon.on_miss_end(0, 9, entry))
    for t in (2, 4, 6, 8):
        eng.at(t, lambda t=t: mon.on_access(1, t))
    eng.run()
    mon.finalize()
    assert entry.pmc == pytest.approx(6.0)
    assert mon.core_stats(1).accesses == 4
    assert mon.core_stats(1).pure_miss_cycles == 0


def test_overlapped_miss_has_zero_pmc_but_nonzero_mlp():
    # A hit's base cycles fully cover the miss window.
    case = [CaseAccess("m", 1, True),
            CaseAccess("h1", 3, False), CaseAccess("h2", 5, False),
            CaseAccess("h3", 7, False)]
    mon, entries = run_monitor(case, base=2, miss=6)
    assert entries["m"].pmc == 0.0
    assert not entries["m"].is_pure
    assert entries["m"].mlp_cost == pytest.approx(6.0)


def test_pmc_bin_edges():
    assert pmc_bin(0) == 0
    assert pmc_bin(49.9) == 0
    assert pmc_bin(50) == 1
    assert pmc_bin(349.9) == PMC_NUM_BINS - 2
    assert pmc_bin(350) == PMC_NUM_BINS - 1
    assert pmc_bin(10_000) == PMC_NUM_BINS - 1
    with pytest.raises(ValueError):
        pmc_bin(-1)


def test_pmc_delta_summary_buckets_and_median():
    deltas = [0, 10, 60, 120, 500]
    s = pmc_delta_summary(deltas)
    assert s["[0,50)"] == pytest.approx(2 / 5)
    assert s["[50,100)"] == pytest.approx(1 / 5)
    assert s["[100,150)"] == pytest.approx(1 / 5)
    assert s[">=150"] == pytest.approx(1 / 5)
    assert s["median"] == 60


def test_pmc_delta_summary_empty():
    s = pmc_delta_summary([])
    assert s["median"] == 0.0 and s["[0,50)"] == 0.0


def test_delta_tracking_per_pc():
    """Consecutive misses of one PC produce |PMC delta| samples."""
    eng = Engine()
    mon = ConcurrencyMonitor(eng, 1, 2, collect_deltas=True)
    for i, (start, dur) in enumerate([(1, 6), (20, 3)]):
        req = MemRequest(addr=i * 64, pc=0x500, core=0, rtype=AccessType.LOAD)
        e = MSHREntry(block=i, primary=req, issue_time=start + 2, core=0)
        eng.at(start, lambda t=start: mon.on_access(0, t))
        eng.at(start + 2, lambda e=e, t=start + 2: mon.on_miss_start(0, t, e))
        eng.at(start + 2 + dur,
               lambda e=e, t=start + 2 + dur: mon.on_miss_end(0, t, e))
    eng.run()
    deltas = mon.pmc_deltas(0)
    assert deltas == [pytest.approx(3.0)]  # |6 - 3|


def test_reset_stats_keeps_outstanding_state():
    eng = Engine()
    mon = ConcurrencyMonitor(eng, 1, 2)
    req = MemRequest(addr=0, pc=0, core=0, rtype=AccessType.LOAD)
    entry = MSHREntry(block=0, primary=req, issue_time=3, core=0)
    eng.at(1, lambda: mon.on_access(0, 1))
    eng.at(3, lambda: mon.on_miss_start(0, 3, entry))
    eng.at(5, lambda: mon.reset_stats())
    eng.at(9, lambda: mon.on_miss_end(0, 9, entry))
    eng.run()
    stats = mon.core_stats(0)
    # Post-reset window spans cycles 5-9, all pure; the miss itself was
    # issued in the warmup, so the measured region does not count it.
    assert stats.misses == 0
    assert stats.pure_miss_cycles == pytest.approx(4.0)
    assert entry.pmc == pytest.approx(6.0)
