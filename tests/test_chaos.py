"""Chaos fault injection: config parsing, determinism, and the
end-to-end guarantee that a chaotic sweep converges to the fault-free
result set."""

import json

import pytest

from repro.checks.chaos import (ChaosConfig, ChaosError, FAULTS,
                                corrupt_entry, inject_execute, parse_chaos,
                                planned_faults, should_inject)
from repro.harness import ExperimentSpec, ResultStore, run_many
from repro.harness.config import RunConfig
from repro.harness.runner import SweepStats, clear_memo
from repro.harness.store import reset_default_store, set_default_store
from repro.harness.supervise import RetryPolicy, SweepFailedError

WORKLOADS = ["429.mcf", "462.libquantum", "470.lbm"]


@pytest.fixture(autouse=True)
def isolated(tmp_path):
    clear_memo()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    yield store
    clear_memo()
    reset_default_store()


def specs_for(workloads, n_records=300):
    return [ExperimentSpec.single(w, "lru", n_records=n_records)
            for w in workloads]


def chaos(profile, **settings):
    """A run configuration with chaos ``profile`` on."""
    return RunConfig(chaos=parse_chaos(profile), **settings)


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------
def test_parse_chaos_profiles():
    cfg = parse_chaos("flaky:7")
    assert cfg.faults == ("flaky",) and cfg.seed == 7
    assert parse_chaos("all:1").faults == FAULTS
    cfg = parse_chaos("kill,hang:3:1/2")
    assert cfg.faults == ("kill", "hang")
    assert (cfg.rate_num, cfg.rate_den) == (1, 2)


def test_parse_chaos_rejects_garbage():
    with pytest.raises(ValueError, match="unknown chaos fault"):
        parse_chaos("explode:1")
    with pytest.raises(ValueError, match="rate"):
        parse_chaos("flaky:1:0/3")
    with pytest.raises(ValueError):
        parse_chaos("flaky:1:banana")
    with pytest.raises(ValueError, match="empty"):
        parse_chaos(":1")


def test_chaos_env_var_is_retired(monkeypatch, caplog):
    """Chaos is a flag only: ``REPRO_CHAOS`` is off for every value,
    even a valid profile, and draws a warning instead."""
    from repro.harness import config
    monkeypatch.setattr(config, "_WARNED", set())
    for value in ("", "off", "raise:5", "all:11:1/3"):
        monkeypatch.setenv("REPRO_CHAOS", value)
        assert RunConfig.from_env().chaos is None
    assert [r.getMessage() for r in caplog.records].count(
        "ignoring REPRO_CHAOS: the environment only sets "
        + ", ".join(config.ENV_VARS)
        + "; use the command-line flag instead") == 1


# ----------------------------------------------------------------------
# Injection decisions
# ----------------------------------------------------------------------
def test_should_inject_is_deterministic_and_rate_bounded():
    cfg = ChaosConfig(faults=("raise",), seed=3, rate_num=1, rate_den=3)
    keys = [f"key-{i:03d}" for i in range(300)]
    picks = [k for k in keys if should_inject(cfg, "raise", k)]
    assert picks == [k for k in keys if should_inject(cfg, "raise", k)]
    # roughly rate_num/rate_den of the keys, and never none/all of them
    assert 0 < len(picks) < len(keys)
    assert abs(len(picks) / len(keys) - 1 / 3) < 0.15
    # a different seed reshuffles the selection
    other = ChaosConfig(faults=("raise",), seed=4, rate_num=1, rate_den=3)
    assert picks != [k for k in keys if should_inject(other, "raise", k)]


def test_transient_faults_fire_on_first_attempt_only():
    cfg = ChaosConfig(faults=FAULTS, seed=1, rate_num=1, rate_den=1)
    key = "some-point"
    assert should_inject(cfg, "flaky", key, attempt=0)
    assert not should_inject(cfg, "flaky", key, attempt=1)
    assert should_inject(cfg, "kill", key, attempt=0)
    assert not should_inject(cfg, "kill", key, attempt=2)
    # "raise" is permanent: every attempt
    assert should_inject(cfg, "raise", key, attempt=0)
    assert should_inject(cfg, "raise", key, attempt=5)
    assert set(planned_faults(cfg, key)) == set(FAULTS)


def test_inject_execute_serial_never_disrupts():
    """With disruptive_ok=False a kill/hang-selected point must neither
    exit nor sleep — the serial runner only sees exception faults."""
    cfg = ChaosConfig(faults=("kill", "hang"), seed=1, rate_num=1,
                      rate_den=1)
    inject_execute(cfg, "any-key", attempt=0, disruptive_ok=False)

    cfg = ChaosConfig(faults=("flaky",), seed=1, rate_num=1, rate_den=1)
    with pytest.raises(OSError, match="transient"):
        inject_execute(cfg, "any-key", attempt=0, disruptive_ok=False)
    cfg = ChaosConfig(faults=("raise",), seed=1, rate_num=1, rate_den=1)
    with pytest.raises(ChaosError, match="permanent"):
        inject_execute(cfg, "any-key", attempt=3, disruptive_ok=False)


def test_corrupt_entry_truncates_selected_files(tmp_path):
    cfg = ChaosConfig(faults=("corrupt",), seed=1, rate_num=1, rate_den=1)
    path = tmp_path / "entry.json"
    payload = json.dumps({"spec": {"a": 1}, "result": list(range(100))})
    path.write_text(payload)
    assert corrupt_entry(cfg, "k", path)
    with pytest.raises(json.JSONDecodeError):
        json.loads(path.read_text())
    # unselected fault -> untouched
    cfg = ChaosConfig(faults=("raise",), seed=1, rate_num=1, rate_den=1)
    path.write_text(payload)
    assert not corrupt_entry(cfg, "k", path)
    assert path.read_text() == payload


# ----------------------------------------------------------------------
# End-to-end: the harness absorbs injected faults
# ----------------------------------------------------------------------
def test_flaky_chaos_is_absorbed_by_retries():
    specs = specs_for(WORKLOADS)
    stats = SweepStats()
    results = run_many(specs, workers=1, stats_out=stats,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01),
                       config=chaos("flaky:7:1/1"))
    assert all(r is not None for r in results)
    assert stats.retried == len(specs)    # every point flaked once
    assert stats.failed == 0


def test_raise_chaos_lands_in_the_failure_table():
    specs = specs_for(WORKLOADS)
    with pytest.raises(SweepFailedError) as excinfo:
        run_many(specs, workers=1,
                 retry=RetryPolicy(max_attempts=2, backoff=0.01),
                 config=chaos("raise:7:1/1"))
    failures = excinfo.value.failures
    assert len(failures) == len(specs)
    assert all(f.error == "ChaosError" and f.permanent for f in failures)
    # permanent failures are not retried
    assert all(f.attempts == 1 for f in failures)


def test_chaotic_sweep_resumes_to_fault_free_results(isolated):
    """Acceptance: chaos -> failures; resume with chaos off -> the result
    set is byte-identical to a fault-free run."""
    specs = specs_for(WORKLOADS)
    chaotic = run_many(specs, workers=1, keep_going=True, on_failure="none",
                       retry=RetryPolicy(max_attempts=3, backoff=0.01),
                       config=chaos("raise,flaky,corrupt:11:1/2"))
    assert any(r is None for r in chaotic)     # seed 11 hits >= 1 point

    clear_memo()
    resumed = run_many(specs, workers=1)
    assert all(r is not None for r in resumed)

    clear_memo()
    set_default_store(None)
    clean = run_many(specs, workers=1)
    assert [r.to_json() for r in resumed] == [r.to_json() for r in clean]


def test_chaotic_resumed_sweep_byte_identical_on_persistent_pool(
        isolated, tmp_path):
    """The PR 7 warm pool under disruptive chaos (hangs, worker kills,
    store corruption) + trace cache still converges: resume with chaos
    off is byte-identical to a store-less fault-free run."""
    from repro.harness.turbo import shutdown_shared_pool

    traces = str(tmp_path / "traces")
    specs = specs_for(WORKLOADS)
    try:
        run_many(specs, workers=2, keep_going=True, on_failure="none",
                 retry=RetryPolicy(max_attempts=2, backoff=0.01),
                 timeout=5, config=chaos("raise,kill,corrupt:11:1/2",
                                         trace_cache=traces))

        clear_memo()
        resumed = run_many(specs, workers=2, timeout=5,
                           config=RunConfig(trace_cache=traces))
        assert all(r is not None for r in resumed)

        clear_memo()
        set_default_store(None)
        clean = run_many(specs, workers=1, config=RunConfig())
        assert [r.to_json() for r in resumed] == \
            [r.to_json() for r in clean]
    finally:
        shutdown_shared_pool()


def test_corrupt_chaos_tears_store_and_trace_cache_writes_on_the_pool(
        isolated, tmp_path):
    """The pool's workers write the trace cache and the parent writes
    the store; chaos ``corrupt`` in the run configuration tears both,
    and fsck quarantines every torn entry."""
    from repro.harness.turbo import shutdown_shared_pool
    from repro.workloads.tracecache import TraceCache

    traces = str(tmp_path / "traces")
    specs = specs_for(WORKLOADS[:2])
    try:
        run_many(specs, workers=2,
                 config=chaos("corrupt:1:1/1", trace_cache=traces))
    finally:
        shutdown_shared_pool()
    assert len(isolated.fsck().quarantined) == len(specs)
    assert len(TraceCache(traces).fsck().quarantined) == len(specs)
