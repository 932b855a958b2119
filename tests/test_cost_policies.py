"""Cost-based baseline: SBAR (MLP-aware)."""

import pytest

from repro.policies.base import PolicyAccess
from repro.policies.dueling import SetDuel
from repro.policies.registry import make_policy
from repro.policies.sbar import quantize_mlp_cost
from repro.sim.request import AccessType


def acc(pc=0, mlp=0.0, rtype=AccessType.LOAD):
    return PolicyAccess(pc=pc, addr=0, core=0, rtype=rtype, mlp_cost=mlp)


def test_quantize_mlp_cost_levels():
    assert quantize_mlp_cost(0) == 0
    assert quantize_mlp_cost(59.9) == 0
    assert quantize_mlp_cost(60) == 1
    assert quantize_mlp_cost(10_000) == 7
    with pytest.raises(ValueError):
        quantize_mlp_cost(-1)


def test_sbar_lin_prefers_cheap_victim():
    pol = make_policy("sbar", sets=4, ways=2, leaders_per_policy=0)
    # force LIN everywhere: with 0 leaders all sets follow PSEL (A = LIN)
    blocks = [None] * 2
    pol.on_fill(0, 0, blocks, acc(mlp=500))   # expensive miss (cost 7)
    pol.on_fill(0, 1, blocks, acc(mlp=0))     # cheap miss (cost 0)
    # way 1 is MRU (rank 1) but cheap: 1 + 0 = 1 < way0's 0 + 7.
    assert pol.find_victim(0, blocks, acc()) == 1


def test_sbar_lru_mode_ignores_cost():
    pol = make_policy("sbar", sets=64, ways=2, seed=0)
    leader_b = next(s for s in range(64)
                    if pol.duel.role(s) == SetDuel.ROLE_B)  # LRU leader
    blocks = [None] * 2
    pol.on_fill(leader_b, 0, blocks, acc(mlp=500))
    pol.on_fill(leader_b, 1, blocks, acc(mlp=0))
    assert pol.find_victim(leader_b, blocks, acc()) == 0  # plain LRU victim


def test_sbar_hit_promotes_recency():
    pol = make_policy("sbar", sets=4, ways=2, leaders_per_policy=0)
    blocks = [None] * 2
    pol.on_fill(0, 0, blocks, acc(mlp=0))
    pol.on_fill(0, 1, blocks, acc(mlp=0))
    pol.on_hit(0, 0, blocks, acc())
    assert pol.find_victim(0, blocks, acc()) == 1


def test_sbar_writeback_fill_is_cheap():
    pol = make_policy("sbar", sets=4, ways=1, leaders_per_policy=0)
    blocks = [None]
    pol.on_fill(0, 0, blocks, acc(mlp=999, rtype=AccessType.WRITEBACK))
    assert pol._cost[0][0] == 0

