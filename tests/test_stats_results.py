"""SimResult / CacheStats accounting details."""

import pytest

from repro.core.pmc import CoreConcurrencyStats
from repro.sim import AccessType, simulate
from repro.sim.cache import CacheStats
from repro.sim.stats import SimResult
from tests.conftest import build_trace


def make_result(**overrides):
    base = dict(
        policy="x", n_cores=2, prefetch=False, ipc=[1.0, 2.0],
        instructions=[10_000, 20_000], cycles=[10_000, 10_000],
        llc=CacheStats(), conc=[CoreConcurrencyStats(),
                                CoreConcurrencyStats()],
        conc_total=CoreConcurrencyStats(), pmc_deltas=[[], []],
    )
    base.update(overrides)
    return SimResult(**base)


def test_mpki_aggregate_and_per_core():
    llc = CacheStats()
    llc.demand_misses_by_core = {0: 100, 1: 50}
    res = make_result(llc=llc)
    assert res.mpki() == pytest.approx(1000 * 150 / 30_000)
    assert res.mpki(0) == pytest.approx(10.0)
    assert res.mpki(1) == pytest.approx(2.5)
    with pytest.raises(IndexError):     # unknown core is a caller bug
        res.mpki(7)


def test_mpki_zero_instructions():
    res = make_result(instructions=[0, 0])
    assert res.mpki() == 0.0


def test_aocpa_averages_only_active_cores():
    a = CoreConcurrencyStats(accesses=10, overlap_cycle_sum=100.0)
    b = CoreConcurrencyStats()           # idle core: excluded
    res = make_result(conc=[a, b])
    assert res.aocpa == pytest.approx(10.0)


def test_cachestats_demand_properties():
    st = CacheStats()
    st.accesses[AccessType.LOAD] = 60
    st.accesses[AccessType.RFO] = 40
    st.accesses[AccessType.PREFETCH] = 11
    st.hits[AccessType.LOAD] = 30
    st.misses[AccessType.LOAD] = 30
    st.misses[AccessType.RFO] = 10
    assert st.demand_accesses == 100
    assert st.total_accesses == 111
    assert st.demand_misses == 40
    assert st.demand_miss_rate == pytest.approx(0.4)


def test_total_instructions_property():
    assert make_result().total_instructions == 30_000


def test_summary_consistent_with_fields(tiny_cfg):
    trace = build_trace(n=800, seed=3)
    res = simulate([trace.records], cfg=tiny_cfg, llc_policy="lru")
    s = res.summary()
    assert s["mpki"] == pytest.approx(res.mpki())
    assert s["pmr"] == pytest.approx(res.pmr)
    assert s["cycles"] == res.sim_cycles


def test_hit_miss_overlap_fraction_bounds(tiny_cfg):
    trace = build_trace(n=800, seed=5)
    res = simulate([trace.records], cfg=tiny_cfg, llc_policy="lru")
    assert 0.0 <= res.hit_miss_overlap_fraction <= 1.0


# ----------------------------------------------------------------------
# Serialization (to_dict/from_dict exact round trip)
# ----------------------------------------------------------------------

def test_cachestats_roundtrip_preserves_enum_and_core_keys():
    st = CacheStats()
    st.accesses[AccessType.LOAD] = 60
    st.hits[AccessType.RFO] = 7
    st.misses[AccessType.PREFETCH] = 3
    st.mshr_merges = 5
    st.demand_misses_by_core = {1: 9, 0: 4}
    back = CacheStats.from_dict(st.to_dict())
    assert back == st
    assert back.demand_misses_by_core == {0: 4, 1: 9}
    assert all(isinstance(k, int) for k in back.demand_misses_by_core)
    assert back.accesses[AccessType.LOAD] == 60


def test_concstats_roundtrip():
    st = CoreConcurrencyStats(accesses=10, misses=4, pmc_sum=12.5,
                              overlap_cycle_sum=3.25)
    st.pmc_histogram[2] = 9
    assert CoreConcurrencyStats.from_dict(st.to_dict()) == st


def test_simresult_roundtrip_synthetic():
    res = make_result()
    back = SimResult.from_dict(res.to_dict())
    assert back == res
    assert back.to_json() == res.to_json()


def test_simresult_roundtrip_real_simulation(tiny_cfg4):
    traces = [build_trace(n=700, seed=s, name=f"t{s}").records
              for s in range(4)]
    res = simulate(traces, cfg=tiny_cfg4, llc_policy="care", prefetch=True)
    text = res.to_json()
    back = SimResult.from_json(text)
    assert back == res                      # exact field equality
    assert back.to_json() == text           # byte-identical re-serialization
    # derived metrics survive the trip
    assert back.mpki() == res.mpki()
    assert back.pmr == res.pmr
    assert back.aocpa == res.aocpa


def test_simresult_rejects_unknown_schema():
    data = make_result().to_dict()
    data["schema"] = 999
    with pytest.raises(ValueError, match="schema"):
        SimResult.from_dict(data)
