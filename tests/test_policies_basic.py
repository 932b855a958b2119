"""Classical policies: LRU, FIFO, Random, LFU, RRIP family, dueling, registry."""

import pytest

from repro.harness import simulate_cache
from repro.policies.base import PolicyAccess
from repro.policies.dueling import SetDuel
from repro.policies.lru import LRUPolicy
from repro.policies.registry import available_policies, make_policy
from repro.policies.sampling import choose_sampled_sets
from repro.policies.srrip import SRRIPPolicy
from repro.sim.request import AccessType


def acc(pc=0, addr=0):
    return PolicyAccess(pc=pc, addr=addr, core=0, rtype=AccessType.LOAD)


def seq_addrs(blocks):
    return [(0x10 + b % 5, b * 64) for b in blocks]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_contains_all_paper_schemes():
    names = available_policies()
    for required in ("lru", "srrip", "drrip", "ship", "shippp", "sbar",
                     "hawkeye", "glider", "mockingjay", "care", "mcare",
                     "opt", "lacs", "fifo", "random", "lfu", "brrip"):
        assert required in names, required


def test_registry_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="available"):
        make_policy("nope", sets=4, ways=2)


def test_registry_drops_unknown_kwargs():
    pol = make_policy("lru", sets=4, ways=2, n_cores=8)  # lru ignores n_cores
    assert isinstance(pol, LRUPolicy)


def test_registry_warns_on_dropped_non_context_kwargs(caplog):
    import logging

    import repro.policies.registry as registry
    registry._warned_drops.clear()
    with caplog.at_level(logging.WARNING, logger="repro.policies.registry"):
        with pytest.warns(DeprecationWarning, match="shct_bits"):
            make_policy("lru", sets=4, ways=2, shct_bits=14)   # typo'd override
    assert any("shct_bits" in r.message and "lru" in r.message
               for r in caplog.records)
    # ... but only once per (policy, argument-set) combination
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.policies.registry"):
        make_policy("lru", sets=4, ways=2, shct_bits=14)
    assert not caplog.records


def test_registry_context_kwargs_drop_silently(caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="repro.policies.registry"):
        make_policy("lru", sets=4, ways=2, n_cores=8)  # uniform context
    assert not caplog.records


def test_policy_name_attribute_matches_registry_key():
    for name in ("lru", "care", "shippp", "hawkeye"):
        assert make_policy(name, sets=4, ways=2).name == name


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------

def test_lru_evicts_least_recent():
    pol = LRUPolicy(1, 3)
    blocks = [None] * 3
    for way in range(3):
        pol.on_fill(0, way, blocks, acc())
    pol.on_hit(0, 0, blocks, acc())          # 0 is now MRU
    assert pol.find_victim(0, blocks, acc()) == 1


def test_lru_stack_property_on_sequential_refills():
    pol = LRUPolicy(1, 4)
    blocks = [None] * 4
    for way in range(4):
        pol.on_fill(0, way, blocks, acc())
    assert pol.recency_order(0) == [3, 2, 1, 0]


def test_lru_exploits_small_working_set():
    # 8 blocks loop into a 16-block cache: all hits after warmup.
    addrs = seq_addrs(list(range(8)) * 20)
    r = simulate_cache(addrs, sets=4, ways=4, policy="lru")
    assert r.misses == 8


def test_lru_thrashes_on_oversized_loop():
    # Classic LRU pathology: loop of N+1 blocks over N-block cache.
    addrs = seq_addrs(list(range(17)) * 10)
    r = simulate_cache(addrs, sets=1, ways=16, policy="lru")
    assert r.hits == 0


# ----------------------------------------------------------------------
# FIFO / Random / LFU
# ----------------------------------------------------------------------

def test_fifo_ignores_hits():
    pol = make_policy("fifo", sets=1, ways=2)
    blocks = [None] * 2
    pol.on_fill(0, 0, blocks, acc())
    pol.on_fill(0, 1, blocks, acc())
    for _ in range(5):
        pol.on_hit(0, 0, blocks, acc())
    assert pol.find_victim(0, blocks, acc()) == 0


def test_random_victims_cover_all_ways():
    pol = make_policy("random", sets=1, ways=4, seed=1)
    seen = {pol.find_victim(0, [None] * 4, acc()) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_lfu_keeps_frequent_block():
    pol = make_policy("lfu", sets=1, ways=2)
    blocks = [None] * 2
    pol.on_fill(0, 0, blocks, acc())
    pol.on_fill(0, 1, blocks, acc())
    for _ in range(10):
        pol.on_hit(0, 0, blocks, acc())
    assert pol.find_victim(0, blocks, acc()) == 1


def test_lfu_decay_halves_counters():
    pol = make_policy("lfu", sets=1, ways=1, decay_period=2)
    blocks = [None]
    pol.on_fill(0, 0, blocks, acc())
    for _ in range(9):
        pol.on_hit(0, 0, blocks, acc())
    assert pol._count[0][0] == 10
    pol.on_fill(0, 0, blocks, acc())   # triggers decay (2nd fill)
    assert pol._count[0][0] <= 5


# ----------------------------------------------------------------------
# RRIP family
# ----------------------------------------------------------------------

def test_srrip_insert_long_promote_on_hit():
    pol = SRRIPPolicy(1, 2)
    blocks = [None] * 2
    pol.on_fill(0, 0, blocks, acc())
    assert pol.rrpv[0][0] == pol.rrpv_max - 1
    pol.on_hit(0, 0, blocks, acc())
    assert pol.rrpv[0][0] == 0


def test_srrip_aging_terminates_and_victimizes():
    pol = SRRIPPolicy(1, 4)
    blocks = [None] * 4
    for w in range(4):
        pol.on_fill(0, w, blocks, acc())
        pol.on_hit(0, w, blocks, acc())   # all RRPV 0
    victim = pol.find_victim(0, blocks, acc())
    assert 0 <= victim < 4
    assert pol.rrpv[0][victim] == pol.rrpv_max


def test_srrip_keeps_hit_blocks_over_fresh_fills():
    # Blocks with hits (RRPV 0) outlive never-hit fills (RRPV 2).
    addrs = seq_addrs([0, 1, 0, 1] + list(range(10, 18)) + [0, 1])
    srrip = simulate_cache(addrs, sets=1, ways=8, policy="srrip")
    lru = simulate_cache(addrs, sets=1, ways=8, policy="lru")
    assert srrip.hits > lru.hits


def test_brrip_resists_thrashing_loop():
    # Loop of ways+1 blocks: LRU gets zero hits, bimodal insertion keeps a
    # subset resident across sweeps.
    addrs = seq_addrs(list(range(17)) * 20)
    lru = simulate_cache(addrs, sets=1, ways=16, policy="lru")
    brrip = simulate_cache(addrs, sets=1, ways=16, policy="brrip", seed=1)
    assert lru.hits == 0
    assert brrip.hits > 50


def test_brrip_inserts_mostly_distant():
    pol = make_policy("brrip", sets=1, ways=1, seed=0)
    blocks = [None]
    distant = 0
    for _ in range(200):
        pol.on_fill(0, 0, blocks, acc())
        distant += pol.rrpv[0][0] == pol.rrpv_max
    assert distant > 150


def test_drrip_tracks_misses_with_psel():
    pol = make_policy("drrip", sets=64, ways=4, seed=0)
    blocks = [None] * 4
    start = pol.duel.psel
    leader_a = next(s for s in range(64) if pol.duel.role(s) == SetDuel.ROLE_A)
    for _ in range(10):
        pol.on_fill(leader_a, 0, blocks, acc())
    assert pol.duel.psel > start


# ----------------------------------------------------------------------
# Set dueling / sampling helpers
# ----------------------------------------------------------------------

def test_setduel_roles_disjoint_and_sized():
    duel = SetDuel(128, leaders_per_policy=16, seed=3)
    roles = [duel.role(s) for s in range(128)]
    assert roles.count(SetDuel.ROLE_A) == 16
    assert roles.count(SetDuel.ROLE_B) == 16


def test_setduel_follower_switches_with_psel():
    duel = SetDuel(64, leaders_per_policy=8, psel_bits=4, seed=0)
    follower = next(s for s in range(64) if duel.role(s) == SetDuel.FOLLOWER)
    leader_a = next(s for s in range(64) if duel.role(s) == SetDuel.ROLE_A)
    assert duel.choose(follower) == SetDuel.ROLE_A
    for _ in range(20):
        duel.on_miss(leader_a)     # policy A keeps missing
    assert duel.choose(follower) == SetDuel.ROLE_B


def test_leader_sets_always_use_own_policy():
    duel = SetDuel(64, leaders_per_policy=8, seed=0)
    leader_b = next(s for s in range(64) if duel.role(s) == SetDuel.ROLE_B)
    for _ in range(100):
        duel.on_miss(leader_b)
    assert duel.choose(leader_b) == SetDuel.ROLE_B


def test_sampled_sets_within_range_and_count():
    sampled = choose_sampled_sets(2048, 64)
    assert len(sampled) == 64
    assert all(0 <= s < 2048 for s in sampled)


def test_sampled_sets_small_cache():
    sampled = choose_sampled_sets(8, 64)
    assert 1 <= len(sampled) <= 4
