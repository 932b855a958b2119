"""CARE policy behavior: Table IV insertion/promotion, victim selection,
SHT training, prefetch and writeback handling, M-CARE's cost signal."""

from repro.core.care import CAREPolicy, EPV_MAX
from repro.core.mcare import MCAREPolicy
from repro.core.signatures import pc_signature
from repro.policies.base import PolicyAccess
from repro.sim.request import AccessType


def acc(pc=0x40, rtype=AccessType.LOAD, prefetch=False, pmc=0.0,
        mlp=0.0, addr=0):
    return PolicyAccess(pc=pc, addr=addr, core=0, rtype=rtype,
                        prefetch=prefetch, pmc=pmc, mlp_cost=mlp)


def care(sets=8, ways=4, **kw):
    return CAREPolicy(sets, ways, seed=1, **kw)


def saturate_rc(pol, pc, up=True, prefetch=False):
    sig = pc_signature(pc, prefetch)
    for _ in range(10):
        (pol.sht.rc_increment if up else pol.sht.rc_decrement)(sig)
    return sig


def saturate_pd(pol, pc, up=True, prefetch=False):
    sig = pc_signature(pc, prefetch)
    for _ in range(10):
        (pol.sht.pd_increment if up else pol.sht.pd_decrement)(sig)
    return sig


# ----------------------------------------------------------------------
# Insertion policy (Table IV)
# ----------------------------------------------------------------------

def test_high_reuse_inserts_epv0():
    pol = care()
    saturate_rc(pol, 0x11, up=True)
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x11))
    assert pol.epv_of(1, 0) == 0


def test_low_reuse_inserts_epv3():
    pol = care()
    saturate_rc(pol, 0x22, up=False)
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x22))
    assert pol.epv_of(1, 0) == EPV_MAX


def test_moderate_reuse_low_cost_inserts_epv3():
    pol = care()
    saturate_pd(pol, 0x33, up=False)
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x33))
    assert pol.epv_of(1, 0) == EPV_MAX


def test_moderate_reuse_high_cost_inserts_epv0():
    pol = care()
    saturate_pd(pol, 0x44, up=True)
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x44))
    assert pol.epv_of(1, 0) == 0


def test_moderate_everything_inserts_epv2():
    pol = care()
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x55))
    assert pol.epv_of(1, 0) == 2


def test_writeback_inserts_epv3():
    pol = care()
    saturate_rc(pol, 0x66, up=True)   # even a "good" signature
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x66, rtype=AccessType.WRITEBACK))
    assert pol.epv_of(1, 0) == EPV_MAX


# ----------------------------------------------------------------------
# Hit-promotion policy (Table IV + Section V-E)
# ----------------------------------------------------------------------

def test_moderate_hit_promotes_to_epv0():
    pol = care()
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x77))
    pol.on_hit(1, 0, [None] * 4, acc(pc=0x77))
    assert pol.epv_of(1, 0) == 0


def test_low_reuse_hit_decrements_gradually():
    pol = care()
    saturate_rc(pol, 0x88, up=False)
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x88))
    assert pol.epv_of(1, 0) == EPV_MAX
    pol.on_hit(1, 0, [None] * 4, acc(pc=0x88))
    assert pol.epv_of(1, 0) == EPV_MAX - 1
    for _ in range(5):
        pol.on_hit(1, 0, [None] * 4, acc(pc=0x88))
    assert pol.epv_of(1, 0) == 0       # never below zero


def test_writeback_hit_does_not_promote():
    pol = care()
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x99))
    before = pol.epv_of(1, 0)
    pol.on_hit(1, 0, [None] * 4, acc(pc=0x99, rtype=AccessType.WRITEBACK))
    assert pol.epv_of(1, 0) == before


def test_prefetched_block_first_demand_hit_demotes():
    """Section V-E: a prefetched block hit once by demand is likely dead."""
    pol = care()
    pol.on_fill(1, 0, [None] * 4, acc(pc=0xA0, rtype=AccessType.PREFETCH,
                                      prefetch=True))
    pol.on_hit(1, 0, [None] * 4, acc(pc=0xA0, prefetch=True))  # demand hit
    assert pol.epv_of(1, 0) == EPV_MAX
    assert pol.stats.prefetch_first_demotions == 1


def test_prefetched_block_second_demand_hit_promotes():
    pol = care()
    pol.on_fill(1, 0, [None] * 4, acc(pc=0xA0, rtype=AccessType.PREFETCH,
                                      prefetch=True))
    pol.on_hit(1, 0, [None] * 4, acc(pc=0xA0, prefetch=True))
    # cache clears the block's prefetch bit after the demand hit
    pol.on_hit(1, 0, [None] * 4, acc(pc=0xA0, prefetch=False))
    assert pol.epv_of(1, 0) == 0


def test_prefetch_requests_hitting_prefetched_block_change_nothing():
    pol = care()
    pol.on_fill(1, 0, [None] * 4, acc(pc=0xB0, rtype=AccessType.PREFETCH,
                                      prefetch=True))
    before = pol.epv_of(1, 0)
    pol.on_hit(1, 0, [None] * 4, acc(pc=0xB0, rtype=AccessType.PREFETCH,
                                     prefetch=True))
    assert pol.epv_of(1, 0) == before


# ----------------------------------------------------------------------
# Victim selection (Section V-D)
# ----------------------------------------------------------------------

def test_victim_chosen_among_epv3():
    pol = care(sets=1, ways=4)
    blocks = [None] * 4
    saturate_rc(pol, 0x1, up=True)
    saturate_rc(pol, 0x2, up=False)
    pol.on_fill(0, 0, blocks, acc(pc=0x1))   # EPV 0
    pol.on_fill(0, 1, blocks, acc(pc=0x2))   # EPV 3
    pol.on_fill(0, 2, blocks, acc(pc=0x1))   # EPV 0
    pol.on_fill(0, 3, blocks, acc(pc=0x2))   # EPV 3
    for _ in range(20):
        assert pol.find_victim(0, blocks, acc()) in (1, 3)


def test_victim_aging_when_no_epv3():
    pol = care(sets=1, ways=2)
    blocks = [None] * 2
    saturate_rc(pol, 0x1, up=True)
    pol.on_fill(0, 0, blocks, acc(pc=0x1))
    pol.on_fill(0, 1, blocks, acc(pc=0x1))
    assert pol.epv_of(0, 0) == 0 and pol.epv_of(0, 1) == 0
    victim = pol.find_victim(0, blocks, acc())
    assert victim in (0, 1)
    assert pol.stats.epv_aging_rounds == 3   # 0 -> 3 takes three rounds
    assert all(pol.epv_of(0, w) == EPV_MAX for w in range(2))


def test_victim_random_choice_covers_candidates():
    pol = care(sets=1, ways=4)
    blocks = [None] * 4
    saturate_rc(pol, 0x2, up=False)
    for w in range(4):
        pol.on_fill(0, w, blocks, acc(pc=0x2))
    seen = {pol.find_victim(0, blocks, acc()) for _ in range(100)}
    assert seen == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# SHT training through sampled sets (Section V-B)
# ----------------------------------------------------------------------

def sampled_set(pol):
    return next(iter(pol.sampled))


def test_first_reuse_increments_rc():
    pol = care()
    s = sampled_set(pol)
    sig = pc_signature(0xC0, False)
    before = pol.sht.rc(sig)
    pol.on_fill(s, 0, [None] * 4, acc(pc=0xC0))
    pol.on_hit(s, 0, [None] * 4, acc(pc=0xC0))
    pol.on_hit(s, 0, [None] * 4, acc(pc=0xC0))   # only first reuse trains
    assert pol.sht.rc(sig) == before + 1


def test_dead_eviction_decrements_rc():
    pol = care()
    s = sampled_set(pol)
    sig = pc_signature(0xD0, False)
    before = pol.sht.rc(sig)
    pol.on_fill(s, 0, [None] * 4, acc(pc=0xD0))
    pol.on_evict(s, 0, [None] * 4, acc())
    assert pol.sht.rc(sig) == before - 1


def test_costly_eviction_increments_pd():
    pol = care()
    s = sampled_set(pol)
    sig = pc_signature(0xE0, False)
    before = pol.sht.pd(sig)
    pol.on_fill(s, 0, [None] * 4, acc(pc=0xE0, pmc=1e6))  # PMCS 3
    pol.on_evict(s, 0, [None] * 4, acc())
    assert pol.sht.pd(sig) == before + 1


def test_cheap_eviction_decrements_pd():
    pol = care()
    s = sampled_set(pol)
    sig = pc_signature(0xF0, False)
    before = pol.sht.pd(sig)
    pol.on_fill(s, 0, [None] * 4, acc(pc=0xF0, pmc=0.0))  # PMCS 0
    pol.on_evict(s, 0, [None] * 4, acc())
    assert pol.sht.pd(sig) == before - 1


def test_writeback_blocks_never_train_sht():
    pol = care()
    s = sampled_set(pol)
    pol.on_fill(s, 0, [None] * 4, acc(pc=0x12, rtype=AccessType.WRITEBACK))
    sig = pc_signature(0x12, False)
    before_rc, before_pd = pol.sht.rc(sig), pol.sht.pd(sig)
    pol.on_evict(s, 0, [None] * 4, acc())
    assert (pol.sht.rc(sig), pol.sht.pd(sig)) == (before_rc, before_pd)


def test_dtrm_period_scales_with_cache_size():
    pol = care(sets=8, ways=4)
    assert pol.dtrm.period == max(64, 8 * 4 // 2)
    big = care(sets=2048, ways=16)
    assert big.dtrm.period == 2048 * 16 // 2   # paper: half the LLC blocks


# ----------------------------------------------------------------------
# Ablation flags and M-CARE
# ----------------------------------------------------------------------

def test_use_reuse_false_treats_all_as_moderate():
    pol = care(use_reuse=False)
    saturate_rc(pol, 0x31, up=True)
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x31))
    assert pol.epv_of(1, 0) == 2      # moderate/moderate


def test_use_cost_false_is_locality_only():
    pol = care(use_cost=False)
    saturate_pd(pol, 0x32, up=True)   # would be High-Cost
    pol.on_fill(1, 0, [None] * 4, acc(pc=0x32))
    assert pol.epv_of(1, 0) == 2      # cost ignored


def test_mcare_uses_mlp_signal():
    m = MCAREPolicy(8, 4, seed=1)
    s = sampled_set(m)
    sig = pc_signature(0x41, False)
    before = m.sht.pd(sig)
    # High MLP cost but zero PMC: only M-CARE should call this costly.
    m.on_fill(s, 0, [None] * 4, acc(pc=0x41, pmc=0.0, mlp=1e6))
    m.on_evict(s, 0, [None] * 4, acc())
    assert m.sht.pd(sig) == before + 1

    c = care()
    before = c.sht.pd(sig)
    c.on_fill(s, 0, [None] * 4, acc(pc=0x41, pmc=0.0, mlp=1e6))
    c.on_evict(s, 0, [None] * 4, acc())
    assert c.sht.pd(sig) == before - 1   # CARE sees the zero PMC


def test_care_registry_names():
    from repro.policies.registry import make_policy
    assert isinstance(make_policy("care", sets=8, ways=4, n_cores=2),
                      CAREPolicy)
    assert isinstance(make_policy("mcare", sets=8, ways=4), MCAREPolicy)
