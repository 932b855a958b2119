"""The supervision layer: failure values, retry policy, manifest
checkpoint/resume, the worker pool's watchdog, and signal handling."""

import json
import os
import signal

import pytest

from repro.checks.chaos import parse_chaos
from repro.harness import ExperimentSpec, ResultStore, run_many
from repro.harness.config import RunConfig
from repro.harness.runner import SweepStats, clear_memo
from repro.harness.store import reset_default_store, set_default_store
from repro.harness.supervise import (CRASH_ERROR, TIMEOUT_ERROR,
                                     FailedResult, RetryPolicy,
                                     SweepFailedError, SweepInterrupted,
                                     SweepManifest, active_supervisor,
                                     compute_timeout, format_failure_table,
                                     supervised_sweep)
from repro.harness.turbo import shutdown_shared_pool

WORKLOADS = ["429.mcf", "462.libquantum", "470.lbm"]


@pytest.fixture(autouse=True)
def isolated(tmp_path):
    clear_memo()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    yield store
    clear_memo()
    reset_default_store()
    shutdown_shared_pool()


def specs_for(workloads, n_records=300):
    return [ExperimentSpec.single(w, "lru", n_records=n_records)
            for w in workloads]


def chaos(profile):
    """A run configuration with chaos ``profile`` on."""
    return RunConfig(chaos=parse_chaos(profile))


def a_failure(spec, kind="error", error="ValueError", permanent=True):
    return FailedResult(spec=spec, kind=kind, error=error,
                        message="boom", attempts=2, permanent=permanent)


# ----------------------------------------------------------------------
# FailedResult / RetryPolicy / compute_timeout
# ----------------------------------------------------------------------
def test_failed_result_roundtrip():
    spec = specs_for(WORKLOADS[:1])[0]
    try:
        raise ValueError("boom")
    except ValueError as exc:
        failure = FailedResult.from_exception(spec, exc, attempts=2,
                                              duration=0.5, permanent=True)
    assert failure.error == "ValueError" and failure.kind == "error"
    assert "boom" in failure.message and "ValueError" in failure.traceback
    clone = FailedResult.from_dict(failure.to_dict())
    assert clone.spec == spec and clone.attempts == 2
    assert "2 attempt(s)" in failure.summary()


def test_retry_policy_classification():
    policy = RetryPolicy()
    assert policy.is_transient(OSError("disk full"))
    assert policy.is_transient(MemoryError())
    assert policy.is_transient_name("BrokenProcessPool")
    assert policy.is_transient_name(CRASH_ERROR)
    assert policy.is_transient_name(TIMEOUT_ERROR)
    assert not policy.is_transient(ValueError("bad input"))
    assert not policy.is_transient_name("ChaosError")


def test_retry_policy_delay_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff=0.25, backoff_cap=8.0, jitter=0.5)
    assert policy.delay("k", 0) == policy.delay("k", 0)
    assert policy.delay("k", 0) != policy.delay("other", 0)
    for attempt in range(12):
        delay = policy.delay("k", attempt)
        base = min(8.0, 0.25 * 2 ** attempt)
        assert base <= delay <= base * 1.5
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)


def test_compute_timeout_precedence(monkeypatch):
    spec = specs_for(WORKLOADS[:1], n_records=300)[0]
    scaled = compute_timeout(spec)
    assert scaled is not None and scaled > 120.0      # base + work term
    big = specs_for(WORKLOADS[:1], n_records=30000)[0]
    assert compute_timeout(big) > scaled              # scales with size
    monkeypatch.setenv("REPRO_TIMEOUT", "7.5")        # retired: ignored
    assert compute_timeout(spec) == scaled
    assert compute_timeout(spec, override=3.0) == 3.0
    assert compute_timeout(spec, override=0) is None


def test_format_failure_table_lists_every_point():
    specs = specs_for(WORKLOADS[:2])
    text = format_failure_table([a_failure(s) for s in specs])
    assert "2 point(s) failed" in text
    for spec in specs:
        assert spec.label() in text


# ----------------------------------------------------------------------
# SweepManifest
# ----------------------------------------------------------------------
def test_manifest_tracks_and_persists_status(tmp_path):
    specs = specs_for(WORKLOADS)
    path = tmp_path / "m.json"
    manifest = SweepManifest(path, sweep="fig07")
    for spec in specs:
        manifest.register(spec)
    manifest.mark_done(specs[0])
    manifest.mark_failed(a_failure(specs[1]))
    assert manifest.counts() == {"pending": 1, "done": 1, "failed": 1}
    manifest.save()

    loaded = SweepManifest.load(path)
    assert loaded.sweep == "fig07"
    assert loaded.counts() == {"pending": 1, "done": 1, "failed": 1}
    assert loaded.keys_with_status("done") == [specs[0].key()]
    assert loaded.reset_failures() == 1
    assert loaded.counts()["pending"] == 2
    assert "3 point(s)" in loaded.summary()


def test_manifest_register_keeps_existing_status(tmp_path):
    spec = specs_for(WORKLOADS[:1])[0]
    manifest = SweepManifest(tmp_path / "m.json")
    manifest.register(spec)
    manifest.mark_done(spec)
    manifest.register(spec)                  # idempotent
    assert manifest.counts()["done"] == 1


def test_manifest_load_rejects_future_versions(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"version": 99, "points": {}}))
    with pytest.raises(ValueError, match="version"):
        SweepManifest.load(path)


# ----------------------------------------------------------------------
# supervised_sweep context
# ----------------------------------------------------------------------
def test_supervised_sweep_installs_and_restores():
    assert active_supervisor() is None
    with supervised_sweep() as sup:
        assert active_supervisor() is sup
        with pytest.raises(RuntimeError, match="already active"):
            with supervised_sweep():
                pass
    assert active_supervisor() is None


def test_run_many_leaves_none_holes_under_supervisor():
    specs = specs_for(WORKLOADS)
    with supervised_sweep(retry=RetryPolicy(backoff=0.01)) as sup:
        results = run_many(specs, workers=1, config=chaos("raise:7:1/1"))
    assert results == [None] * len(specs)
    assert len(sup.failures) == len(specs)
    assert all(f.error == "ChaosError" for f in sup.failures)


def test_run_many_fail_fast_aborts_early():
    specs = specs_for(WORKLOADS)
    with supervised_sweep(keep_going=False,
                          retry=RetryPolicy(backoff=0.01)):
        with pytest.raises(SweepFailedError) as excinfo:
            run_many(specs, workers=1, config=chaos("raise:7:1/1"))
    assert len(excinfo.value.failures) == 1   # stopped at the first


def test_run_many_checkpoints_manifest(tmp_path):
    specs = specs_for(WORKLOADS)
    path = tmp_path / "m.json"
    with supervised_sweep(manifest=SweepManifest(path),
                          retry=RetryPolicy(backoff=0.01)) as sup:
        run_many(specs, workers=1, config=chaos("raise:11:1/2"))
    assert path.is_file()
    loaded = SweepManifest.load(path)
    counts = loaded.counts()
    assert counts["failed"] == len(sup.failures) > 0
    assert counts["done"] == len(specs) - counts["failed"]
    entry = loaded.points[sup.failures[0].spec.key()]
    assert entry["error"]["error"] == "ChaosError"


# ----------------------------------------------------------------------
# Signal handling: SIGINT mid-sweep checkpoints, resume completes
# ----------------------------------------------------------------------
def test_sigint_mid_sweep_flushes_manifest_and_resumes(isolated, tmp_path):
    specs = specs_for(WORKLOADS)
    path = tmp_path / "m.json"

    def interrupt_after_first(stats, spec, event):
        if event == "simulated":
            os.kill(os.getpid(), signal.SIGINT)

    with supervised_sweep(manifest=SweepManifest(path)):
        with pytest.raises(SweepInterrupted):
            run_many(specs, workers=1, progress=interrupt_after_first)

    loaded = SweepManifest.load(path)
    counts = loaded.counts()
    assert counts["done"] == 1 and counts["pending"] == len(specs) - 1

    # resume: the done point is served from the store, the rest simulate
    clear_memo()
    stats = SweepStats()
    with supervised_sweep(manifest=loaded):
        results = run_many(specs, workers=1, stats_out=stats)
    assert all(r is not None for r in results)
    assert stats.store_hits == 1
    assert stats.simulated == len(specs) - 1
    assert SweepManifest.load(path).counts()["done"] == len(specs)


def test_sigint_mid_sweep_without_manifest_reports_pending(isolated):
    """No manifest to count from: the pending count comes from the
    sweep's own stats, so points that never ran are not reported as 0."""
    specs = specs_for(WORKLOADS)

    def interrupt_after_first(stats, spec, event):
        if event == "simulated":
            os.kill(os.getpid(), signal.SIGINT)

    with supervised_sweep():
        with pytest.raises(SweepInterrupted) as excinfo:
            run_many(specs, workers=1, progress=interrupt_after_first)
    assert "1 point(s) done, 2 pending" in str(excinfo.value)


# ----------------------------------------------------------------------
# Worker pool: watchdog and crash recovery
# ----------------------------------------------------------------------
def test_pool_watchdog_kills_hung_workers():
    specs = specs_for(WORKLOADS[:2])
    stats = SweepStats()
    results = run_many(specs, workers=2, stats_out=stats,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01),
                       timeout=2, config=chaos("hang:5:1/1"))
    assert all(r is not None for r in results)
    assert stats.timeouts == len(specs)     # every point hung once
    assert stats.failed == 0
    assert stats.fell_back_serial or stats.pool_used


def test_pool_recovers_crashed_workers():
    specs = specs_for(WORKLOADS[:2])
    stats = SweepStats()
    results = run_many(specs, workers=2, stats_out=stats,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01),
                       config=chaos("kill:5:1/1"))
    assert all(r is not None for r in results)
    assert stats.crashes == len(specs)      # every worker died once
    assert stats.failed == 0


def test_pool_results_match_serial_under_chaos(isolated):
    """Chaos only perturbs scheduling, never results: a pool sweep under
    kill/flaky chaos is byte-identical to a clean serial sweep."""
    specs = specs_for(WORKLOADS)
    via_pool = run_many(specs, workers=2, store=None,
                        retry=RetryPolicy(max_attempts=3, backoff=0.01),
                        config=chaos("kill,flaky:9:1/2"))
    clear_memo()
    serial = run_many(specs, workers=1, store=None)
    assert [r.to_json() for r in via_pool] == \
        [r.to_json() for r in serial]
