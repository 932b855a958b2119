"""Full-hierarchy System runs: wiring, warmup, measurement, invariants."""

import random

import pytest

from repro.sim import SystemConfig, System, simulate
from repro.workloads import TraceRecord
from tests.conftest import build_trace


def test_single_core_run_completes(tiny_cfg, small_trace):
    res = simulate([small_trace.records], cfg=tiny_cfg, llc_policy="lru")
    assert res.n_cores == 1
    assert res.ipc[0] > 0
    # Default: warmup = N/4 records, then a full N-record measured region
    # (the trace replays), so measured instructions == the whole trace's.
    assert res.instructions[0] == small_trace.instructions


def test_trace_count_must_match_cores(tiny_cfg4, small_trace):
    with pytest.raises(ValueError):
        System(tiny_cfg4, [small_trace.records], llc_policy="lru")


def test_multicore_run_all_cores_measured(tiny_cfg4, small_traces4):
    res = simulate([t.records for t in small_traces4], cfg=tiny_cfg4,
                   llc_policy="lru")
    assert len(res.ipc) == 4
    assert all(ipc > 0 for ipc in res.ipc)
    assert res.llc.total_accesses > 0


def test_warmup_resets_measured_stats(tiny_cfg, small_trace):
    recs = small_trace.records
    cold = simulate([recs], cfg=tiny_cfg, llc_policy="lru",
                    measure_records=800, warmup_records=0)
    warm = simulate([recs], cfg=tiny_cfg, llc_policy="lru",
                    measure_records=800, warmup_records=700)
    # Cold-start misses must not pollute the warmed measurement.
    assert warm.mpki() < cold.mpki()


def test_policy_objects_accepted(tiny_cfg, small_trace):
    from repro.policies.lru import LRUPolicy

    def factory(sets, ways, seed, n_cores):
        return LRUPolicy(sets, ways, seed)

    res = simulate([small_trace.records], cfg=tiny_cfg, llc_policy=factory)
    assert res.policy == "lru"


def test_llc_monitor_always_attached(tiny_cfg, small_trace):
    res = simulate([small_trace.records], cfg=tiny_cfg, llc_policy="lru")
    assert res.conc_total.accesses > 0
    assert res.conc_total.misses > 0


def test_pmc_sum_bounded_by_pure_cycles(tiny_cfg4, small_traces4):
    res = simulate([t.records for t in small_traces4], cfg=tiny_cfg4,
                   llc_policy="lru")
    for core_stats in res.conc:
        # Completed misses' PMC cannot exceed the core's pure-miss cycles
        # (pre-warmup leak-in allows slight overshoot; allow 10%).
        assert core_stats.pmc_sum <= core_stats.pure_miss_cycles * 1.1 + 1e-6


def test_pure_misses_subset_of_misses(tiny_cfg4, small_traces4):
    res = simulate([t.records for t in small_traces4], cfg=tiny_cfg4,
                   llc_policy="lru")
    total = res.conc_total
    assert 0 <= total.pure_misses <= total.misses
    assert 0 <= total.hit_miss_overlap_misses <= total.misses
    assert 0.0 <= res.pmr <= 1.0


def test_no_duplicate_blocks_after_run(tiny_cfg4, small_traces4):
    system = System(tiny_cfg4, [t.records for t in small_traces4],
                    llc_policy="care")
    system.run()
    system.llc.assert_no_duplicates()
    for cache in system.l1s + system.l2s:
        cache.assert_no_duplicates()


def test_prefetchers_only_when_enabled(tiny_cfg, small_trace):
    off = System(tiny_cfg, [small_trace.records], prefetch=False)
    on = System(tiny_cfg, [small_trace.records], prefetch=True)
    assert off.l1s[0].prefetcher is None
    assert on.l1s[0].prefetcher is not None
    res = on.run()
    assert res.prefetch


def test_prefetching_changes_traffic(tiny_cfg, small_trace):
    base = simulate([small_trace.records], cfg=tiny_cfg, prefetch=False)
    pf = simulate([small_trace.records], cfg=tiny_cfg, prefetch=True)
    total_pf_fills = sum(
        s.prefetch_fills for s in pf.l1_stats + pf.l2_stats)
    assert total_pf_fills > 0
    assert base.llc.total_accesses != pf.llc.total_accesses


def test_deterministic_given_seed(tiny_cfg4, small_traces4):
    traces = [t.records for t in small_traces4]
    a = simulate(traces, cfg=tiny_cfg4, llc_policy="care", seed=7)
    b = simulate(traces, cfg=tiny_cfg4, llc_policy="care", seed=7)
    assert a.ipc == b.ipc
    assert a.sim_cycles == b.sim_cycles
    assert a.mpki() == b.mpki()


def test_summary_fields(tiny_cfg, small_trace):
    res = simulate([small_trace.records], cfg=tiny_cfg, llc_policy="lru")
    s = res.summary()
    for key in ("policy", "cores", "ipc_mean", "mpki", "pmr", "mean_pmc",
                "aocpa", "cycles"):
        assert key in s


def test_collect_deltas_flag(tiny_cfg, small_trace):
    res = simulate([small_trace.records], cfg=tiny_cfg, llc_policy="lru",
                   collect_deltas=True)
    assert isinstance(res.pmc_deltas[0], list)


def test_dram_traffic_accounted(tiny_cfg, small_trace):
    res = simulate([small_trace.records], cfg=tiny_cfg, llc_policy="lru")
    assert res.dram.reads > 0
    assert res.dram.row_hits + res.dram.row_misses == (
        res.dram.reads + res.dram.writes)


# ----------------------------------------------------------------------
# Deprecation shim: positional simulate() arguments
# ----------------------------------------------------------------------
def _mini_records(n=60):
    r = random.Random(1)
    return [TraceRecord(pc=0x10, addr=r.randrange(256) * 64,
                        is_write=False, gap=1) for _ in range(n)]


def test_simulate_positional_args_warn_and_still_work(tiny_cfg):
    records = _mini_records()
    with pytest.warns(DeprecationWarning, match="positional"):
        legacy = simulate([records], tiny_cfg, "lru")
    modern = simulate([records], cfg=tiny_cfg, llc_policy="lru")
    assert legacy.to_json() == modern.to_json()


def test_simulate_rejects_positional_keyword_conflict(tiny_cfg):
    with pytest.warns(DeprecationWarning):
        with pytest.raises(TypeError, match="multiple values"):
            simulate([_mini_records()], tiny_cfg, cfg=tiny_cfg)
