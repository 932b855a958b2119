"""Inclusive-LLC mode: back-invalidation of private levels."""

from dataclasses import replace

from repro.policies.lru import LRUPolicy
from repro.sim import (
    AccessType,
    Cache,
    CacheConfig,
    Engine,
    SystemConfig,
    System,
)
from tests.test_cache import _PerfectLower, _load


def build_pair(inclusive=True):
    """Tiny L1 over a 1-entry LLC so LLC evictions are easy to force."""
    eng = Engine()
    mem = _PerfectLower(eng, delay=10)
    llc = Cache(CacheConfig("LLC", 1, 1, 2, 4), eng,
                LRUPolicy(1, 1), lower=mem, inclusive=inclusive)
    l1 = Cache(CacheConfig("L1", 1, 2, 1, 4), eng,
               LRUPolicy(1, 2), lower=llc)
    llc.upper_levels = [l1]
    return eng, mem, llc, l1


def test_invalidate_returns_dirty_state():
    eng, mem, llc, l1 = build_pair()
    l1.access(_load(0x0, rtype=AccessType.RFO))
    eng.run()
    assert l1.probe(0x0)
    assert l1.invalidate(0x0) is True      # dirty copy dropped
    assert not l1.probe(0x0)
    assert l1.invalidate(0x0) is False     # already gone


def test_inclusive_eviction_removes_upper_copy():
    eng, mem, llc, l1 = build_pair(inclusive=True)
    l1.access(_load(0x0))
    eng.run()
    assert l1.probe(0x0) and llc.probe(0x0)
    # A second block evicts the 1-way LLC's only line.
    l1.access(_load(0x40))
    eng.run()
    assert not l1.probe(0x0)
    assert l1.stats.invalidations == 1


def test_noninclusive_eviction_keeps_upper_copy():
    eng, mem, llc, l1 = build_pair(inclusive=False)
    l1.access(_load(0x0))
    eng.run()
    l1.access(_load(0x40))
    eng.run()
    assert l1.probe(0x0)                   # L1 copy survives
    assert l1.stats.invalidations == 0


def test_inclusive_eviction_merges_upper_dirty_state():
    eng, mem, llc, l1 = build_pair(inclusive=True)
    l1.access(_load(0x0, rtype=AccessType.RFO))   # dirty in L1, clean in LLC
    eng.run()
    l1.access(_load(0x40))
    eng.run()
    wbs = [r for r in mem.requests if r.rtype == AccessType.WRITEBACK]
    assert len(wbs) == 1 and wbs[0].block == 0


def test_full_system_inclusive_mode(small_trace):
    cfg = replace(SystemConfig.tiny(1), llc_inclusive=True)
    system = System(cfg, [small_trace.records], llc_policy="lru",
                    warmup_records=0)
    res = system.run()
    assert res.ipc[0] > 0
    invalidations = sum(s.invalidations for s in res.l1_stats + res.l2_stats)
    assert invalidations > 0
    system.llc.assert_no_duplicates()


def test_inclusive_mode_increases_private_misses(small_trace):
    base_cfg = SystemConfig.tiny(1)
    non = System(base_cfg, [small_trace.records], llc_policy="lru",
                 warmup_records=0).run()
    inc = System(replace(base_cfg, llc_inclusive=True),
                 [small_trace.records], llc_policy="lru",
                 warmup_records=0).run()
    # Back-invalidations can only remove reuse from the private levels.
    assert inc.l1_stats[0].demand_hits <= non.l1_stats[0].demand_hits
