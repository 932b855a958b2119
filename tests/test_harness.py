"""Experiment harness: the runner's memo, single and multi-copy points,
cachesim."""

import pytest

from repro.harness import ExperimentSpec, run, simulate_cache
from repro.harness.runner import _MEMO, clear_memo


def test_run_single_is_cached():
    clear_memo()
    a = run(ExperimentSpec.single("462.libquantum", "lru", n_records=600))
    size = len(_MEMO)
    b = run(ExperimentSpec.single("462.libquantum", "lru", n_records=600))
    assert a is b
    assert len(_MEMO) == size


def test_cache_key_distinguishes_parameters():
    clear_memo()
    run(ExperimentSpec.single("462.libquantum", "lru", n_records=600))
    run(ExperimentSpec.single("462.libquantum", "lru", n_records=600,
                              prefetch=True))
    run(ExperimentSpec.single("462.libquantum", "srrip", n_records=600))
    assert len(_MEMO) == 3


def test_multicopy_core_count():
    clear_memo()
    res = run(ExperimentSpec.multicopy("470.lbm", "lru", n_cores=2,
                                       prefetch=False, n_records=500))
    assert res.n_cores == 2


def test_gap_suite_runs():
    clear_memo()
    res = run(ExperimentSpec.multicopy("bfs-or", "lru", n_cores=1,
                                       prefetch=False, suite="gap",
                                       n_records=500))
    assert res.ipc[0] > 0


def test_spec_factories_default_to_the_spec_record_count():
    default = ExperimentSpec("429.mcf", "lru").n_records
    assert ExperimentSpec.multicopy("429.mcf", "lru").n_records == default
    assert ExperimentSpec.single("429.mcf").n_records == default
    assert ExperimentSpec.mix(0, "lru").n_records == default


# ----------------------------------------------------------------------
# cachesim input handling
# ----------------------------------------------------------------------

def test_cachesim_accepts_multiple_input_forms(small_trace):
    from_records = simulate_cache(small_trace.records[:200], sets=4, ways=2)
    from_pairs = simulate_cache(
        [(r.pc, r.addr) for r in small_trace.records[:200]], sets=4, ways=2)
    from_addrs = simulate_cache(
        [r.addr for r in small_trace.records[:200]], sets=4, ways=2)
    assert from_records.hits == from_pairs.hits == from_addrs.hits


def test_cachesim_rejects_bad_sets():
    with pytest.raises(ValueError):
        simulate_cache([0], sets=3, ways=1)


def test_cachesim_hit_vector():
    r = simulate_cache([0, 0, 64], sets=1, ways=2, record_hits=True)
    assert r.hit_vector == [False, True, False]


def test_cachesim_accepts_policy_object():
    from repro.policies.lru import LRUPolicy
    pol = LRUPolicy(2, 2)
    r = simulate_cache([0, 0], sets=2, ways=2, policy=pol)
    assert r.hits == 1
