"""The sweep engine: run/run_many, caching tiers, parallel determinism."""

import os

import pytest

from repro.harness import ExperimentSpec, ResultStore, run, run_many
from repro.harness.runner import SweepStats, clear_memo, resolve_workers
from repro.harness.store import reset_default_store, set_default_store

WORKLOADS = ["429.mcf", "462.libquantum", "470.lbm", "482.sphinx3"]


@pytest.fixture(autouse=True)
def isolated_store(tmp_path):
    """Each test gets an empty memo and its own on-disk store."""
    clear_memo()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    yield store
    clear_memo()
    reset_default_store()


def specs_for(workloads, n_records=400):
    return [ExperimentSpec.single(w, "lru", n_records=n_records)
            for w in workloads]


def test_run_memoizes_and_persists(isolated_store):
    spec = specs_for(WORKLOADS[:1])[0]
    a = run(spec)
    b = run(spec)
    assert a is b                       # in-process memo keeps identity
    assert isolated_store.stats()["writes"] == 1
    clear_memo()
    c = run(spec)                       # fresh memo -> served from disk
    assert c is not a and c == a
    assert isolated_store.stats()["hits"] == 1


def test_run_force_resimulates(isolated_store):
    spec = specs_for(WORKLOADS[:1])[0]
    a = run(spec)
    b = run(spec, force=True)
    assert b is not a and b == a
    assert isolated_store.stats()["writes"] == 2


def test_run_many_preserves_order_and_dedups(isolated_store):
    specs = specs_for(WORKLOADS[:2])
    sheet = [specs[0], specs[1], specs[0], specs[1], specs[0]]
    stats = SweepStats()
    results = run_many(sheet, workers=1, stats_out=stats)
    assert len(results) == 5
    assert results[0] is results[2] is results[4]
    assert results[1] is results[3]
    assert stats.simulated == 2         # duplicates resolved once
    assert stats.total == 2


def test_run_many_serves_store_hits(isolated_store):
    specs = specs_for(WORKLOADS[:3])
    run_many(specs, workers=1)
    clear_memo()                        # simulate a fresh process
    stats = SweepStats()
    again = run_many(specs, workers=1, stats_out=stats)
    assert stats.store_hits == 3
    assert stats.simulated == 0         # zero re-simulation
    assert [r.to_json() for r in again] == \
        [r.to_json() for r in run_many(specs, workers=1)]


def test_parallel_results_byte_identical_to_serial(isolated_store):
    specs = specs_for(WORKLOADS)
    serial_stats = SweepStats()
    serial = run_many(specs, workers=1, store=None, stats_out=serial_stats)
    clear_memo()
    par_stats = SweepStats()
    parallel = run_many(specs, workers=2, store=None, stats_out=par_stats)
    assert par_stats.pool_used or par_stats.fell_back_serial
    assert serial_stats.simulated == par_stats.simulated == len(specs)
    for a, b in zip(serial, parallel):
        assert a.to_json() == b.to_json()


def test_parallel_run_populates_store(isolated_store):
    specs = specs_for(WORKLOADS[:2])
    run_many(specs, workers=2)
    assert isolated_store.stats()["writes"] == 2
    clear_memo()
    stats = SweepStats()
    run_many(specs, workers=2, stats_out=stats)
    assert stats.store_hits == 2 and stats.simulated == 0


def test_same_seed_same_json_across_processes(isolated_store):
    """Determinism: a subprocess-simulated point equals the in-process one."""
    spec = ExperimentSpec.multicopy("462.libquantum", "care", n_cores=2,
                                    prefetch=True, n_records=300)
    [via_pool] = run_many([spec], workers=2, store=None)
    clear_memo()
    in_process = run(spec, store=None)
    assert via_pool.to_json() == in_process.to_json()


def test_run_many_progress_callback(isolated_store):
    events = []
    specs = specs_for(WORKLOADS[:2])
    run_many(specs, workers=1,
             progress=lambda stats, spec, event: events.append(event))
    assert events.count("simulated") == 2
    assert events[-1] == "done"


def test_resolve_workers(monkeypatch):
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == (os.cpu_count() or 1)
    assert resolve_workers(-5) == 1
    monkeypatch.setenv("REPRO_WORKERS", "6")        # retired: ignored
    assert resolve_workers(None) == 1


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 CPUs")
def test_parallel_speedup_on_four_points(isolated_store):
    """Acceptance: workers=4 gives >= 2x wall-clock on 4 distinct points."""
    import time
    specs = specs_for(WORKLOADS, n_records=4000)
    start = time.monotonic()
    serial = run_many(specs, workers=1, store=None)
    serial_t = time.monotonic() - start
    clear_memo()
    start = time.monotonic()
    parallel = run_many(specs, workers=4, store=None)
    parallel_t = time.monotonic() - start
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
    assert parallel_t * 2.0 <= serial_t


def test_legacy_helpers_route_through_engine(isolated_store):
    """A point built by a spec helper (``ExperimentSpec.single``) and run
    through ``run`` lands in the memo and the store, like every sweep
    point."""
    from repro.harness.runner import _MEMO
    clear_memo()
    res = run(ExperimentSpec.single("462.libquantum", "lru", n_records=400))
    assert len(_MEMO) == 1
    (spec,) = _MEMO
    assert isinstance(spec, ExperimentSpec)
    assert spec.n_records == 400 and spec.n_cores == 1
    assert _MEMO[spec] is res
    assert isolated_store.stats()["writes"] == 1
