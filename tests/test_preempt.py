"""Checkpoint/preempt harness layer: config, cadence, quarantine
fallback, chaos preempt equivalence on every execution path, manifest
lineage + persistence strikes, and resource guards."""

import json
import os
import signal

import pytest

from repro.harness import ExperimentSpec, ResultStore, run_many
from repro.harness import preempt
from repro.harness.runner import SweepStats, clear_memo
from repro.harness.store import (code_fingerprint, reset_default_store,
                                 set_default_store)
from repro.harness.supervise import (ManifestPersistError, RetryPolicy,
                                     SweepInterrupted, SweepManifest,
                                     supervised_sweep)
from repro.harness.turbo import shutdown_shared_pool

WORKLOADS = ["429.mcf", "462.libquantum", "470.lbm"]

CKPT_VARS = ("REPRO_CKPT_DIR", "REPRO_CKPT_EVENTS", "REPRO_CKPT_SECS",
             "REPRO_RSS_BUDGET_MB", "REPRO_DISK_FLOOR_MB",
             "REPRO_PREEMPT_GRACE")


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    for var in CKPT_VARS + ("REPRO_CHAOS", "REPRO_TIMEOUT"):
        monkeypatch.delenv(var, raising=False)
    preempt.clear_preempt()
    clear_memo()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    yield store
    preempt.clear_preempt()
    clear_memo()
    reset_default_store()
    shutdown_shared_pool()


def specs_for(workloads, n_records=300):
    return [ExperimentSpec.single(w, "lru", n_records=n_records)
            for w in workloads]


def enable_ckpt(monkeypatch, tmp_path, events="1000"):
    root = tmp_path / "ckpt"
    monkeypatch.setenv("REPRO_CKPT_DIR", str(root))
    if events:
        monkeypatch.setenv("REPRO_CKPT_EVENTS", events)
    return root


# ----------------------------------------------------------------------
# Configuration parsing
# ----------------------------------------------------------------------
def test_checkpoint_from_env_requires_dir():
    assert preempt.checkpoint_from_env({}) is None
    assert preempt.checkpoint_from_env({"REPRO_CKPT_DIR": "  "}) is None
    cfg = preempt.checkpoint_from_env({"REPRO_CKPT_DIR": "/tmp/c"})
    assert cfg.dir == "/tmp/c"
    assert cfg.every_events is None and cfg.every_secs is None


def test_checkpoint_from_env_parses_cadence_leniently():
    cfg = preempt.checkpoint_from_env({
        "REPRO_CKPT_DIR": "/tmp/c", "REPRO_CKPT_EVENTS": "5000",
        "REPRO_CKPT_SECS": "2.5"})
    assert cfg.every_events == 5000 and cfg.every_secs == 2.5
    cfg = preempt.checkpoint_from_env({
        "REPRO_CKPT_DIR": "/tmp/c", "REPRO_CKPT_EVENTS": "junk",
        "REPRO_CKPT_SECS": "-1"})
    assert cfg.every_events is None and cfg.every_secs is None
    # events floor at 1; a bare dir still ticks at the default interval
    cfg = preempt.checkpoint_from_env({
        "REPRO_CKPT_DIR": "/tmp/c", "REPRO_CKPT_EVENTS": "0"})
    policy = preempt.CheckpointPolicy.for_spec(cfg, "k" * 64, "f" * 64)
    assert policy.tick_interval == 1


def test_grace_and_guard_parsing():
    assert preempt.preempt_grace({}) == preempt.DEFAULT_GRACE_SECS
    assert preempt.preempt_grace({"REPRO_PREEMPT_GRACE": "2.5"}) == 2.5
    assert preempt.preempt_grace(
        {"REPRO_PREEMPT_GRACE": "nope"}) == preempt.DEFAULT_GRACE_SECS
    assert not preempt.guards_from_env({}).enabled
    guards = preempt.guards_from_env({"REPRO_RSS_BUDGET_MB": "512",
                                      "REPRO_DISK_FLOOR_MB": "100"})
    assert guards.enabled
    assert guards.rss_budget_mb == 512 and guards.disk_floor_mb == 100
    assert not preempt.guards_from_env(
        {"REPRO_RSS_BUDGET_MB": "-5"}).enabled


def test_state_path_is_sharded():
    path = preempt.state_path("/tmp/root", "abcdef" + "0" * 58)
    assert str(path).startswith("/tmp/root/ab/abcdef")
    assert path.name.endswith(".ckpt.gz")


def test_resource_probes_report_plausible_values(tmp_path):
    rss = preempt.rss_mb(os.getpid())
    assert rss is not None and rss > 1.0
    free = preempt.disk_free_mb(tmp_path)
    assert free is not None and free > 0
    assert preempt.rss_mb(2 ** 30) is None       # no such pid
    # breach messages name the offending resource
    guards = preempt.ResourceGuards(rss_budget_mb=0.001)
    assert "rss" in preempt.guard_breach(guards, os.getpid(), None)
    guards = preempt.ResourceGuards(disk_floor_mb=10 ** 9)
    assert "disk" in preempt.guard_breach(guards, os.getpid(), tmp_path)
    assert preempt.guard_breach(preempt.ResourceGuards(), os.getpid(),
                                tmp_path) is None


# ----------------------------------------------------------------------
# Cadence + in-process preempt/resume
# ----------------------------------------------------------------------
def test_cadence_writes_states_and_completion_clears_them(
        tmp_path, monkeypatch):
    root = enable_ckpt(monkeypatch, tmp_path)
    spec = specs_for(WORKLOADS[:1])[0]
    seen = []
    original = preempt.save_state

    def spy(policy):
        seen.append(policy.system.engine.events_processed)
        return original(policy)

    monkeypatch.setattr(preempt, "save_state", spy)
    clean = spec.execute()
    assert seen and seen == sorted(seen)         # periodic saves happened
    assert all(n % 1000 == 0 for n in seen)      # at watcher boundaries
    # ...and the completed run cleaned its state up
    assert not preempt.state_path(root, spec.key()).exists()
    # a checkpointed run is byte-identical to an unobserved one
    for var in ("REPRO_CKPT_DIR", "REPRO_CKPT_EVENTS"):
        monkeypatch.delenv(var)
    assert spec.execute().to_json() == clean.to_json()


def test_preempt_then_reexecute_resumes(tmp_path, monkeypatch):
    enable_ckpt(monkeypatch, tmp_path)
    spec = specs_for(WORKLOADS[:1])[0]
    preempt.request_preempt()
    with pytest.raises(preempt.PreemptedError) as excinfo:
        spec.execute()
    assert excinfo.value.events == 1000
    notes = {}
    resumed = spec.execute(notes=notes)
    assert notes == {"resumed": 1000}
    for var in ("REPRO_CKPT_DIR", "REPRO_CKPT_EVENTS"):
        monkeypatch.delenv(var)
    assert resumed.to_json() == spec.execute().to_json()


def test_corrupt_state_quarantines_and_cold_starts(tmp_path, monkeypatch):
    root = enable_ckpt(monkeypatch, tmp_path)
    spec = specs_for(WORKLOADS[:1])[0]
    preempt.request_preempt()
    with pytest.raises(preempt.PreemptedError):
        spec.execute()
    path = preempt.state_path(root, spec.key())
    path.write_bytes(path.read_bytes()[:100])            # torn write
    notes = {}
    result = spec.execute(notes=notes)
    assert "CorruptSavestate" in notes["quarantined"]
    assert "resumed" not in notes                        # cold start
    assert (path.parent / "quarantine" / path.name).is_file()
    for var in ("REPRO_CKPT_DIR", "REPRO_CKPT_EVENTS"):
        monkeypatch.delenv(var)
    assert result.to_json() == spec.execute().to_json()  # never wrong


def test_stale_state_quarantines_and_cold_starts(tmp_path, monkeypatch):
    from repro.sim.savestate import encode_savestate
    root = enable_ckpt(monkeypatch, tmp_path)
    spec = specs_for(WORKLOADS[:1])[0]
    preempt.request_preempt()
    with pytest.raises(preempt.PreemptedError):
        spec.execute()
    path = preempt.state_path(root, spec.key())
    # re-sign the valid state with a foreign code fingerprint
    from repro.sim.savestate import decode_savestate
    system = decode_savestate(path.read_bytes(), spec_key=spec.key(),
                              fingerprint=code_fingerprint())
    path.write_bytes(encode_savestate(system, spec_key=spec.key(),
                                      fingerprint="f" * 64))
    notes = {}
    spec.execute(notes=notes)
    assert "StaleSavestate" in notes["quarantined"]
    assert (path.parent / "quarantine" / path.name).is_file()


# ----------------------------------------------------------------------
# Chaos preempt: every execution path converges to fault-free results
# ----------------------------------------------------------------------
def test_chaos_preempt_noops_without_checkpointing(monkeypatch):
    monkeypatch.delenv("REPRO_CKPT_DIR", raising=False)
    assert not preempt.chaos_preempt()
    assert not preempt.preempt_requested()
    monkeypatch.setenv("REPRO_CKPT_DIR", "/tmp/ckpt")
    assert preempt.chaos_preempt()
    assert preempt.preempt_requested()
    preempt.clear_preempt()


def test_serial_sweep_preempted_points_resume_identically(
        tmp_path, monkeypatch):
    specs = specs_for(WORKLOADS)
    clean = run_many(specs, workers=1, store=None)
    clear_memo()
    enable_ckpt(monkeypatch, tmp_path)
    monkeypatch.setenv("REPRO_CHAOS", "preempt:7:1/1")
    stats = SweepStats()
    results = run_many(specs, workers=1, store=None, stats_out=stats,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01))
    assert stats.retried == len(specs)        # every point was preempted
    assert stats.failed == 0
    assert [r.to_json() for r in results] == [r.to_json() for r in clean]


def test_pool_sweep_preempted_points_resume_identically(
        tmp_path, monkeypatch):
    specs = specs_for(WORKLOADS)
    clean = run_many(specs, workers=1, store=None)
    clear_memo()
    root = enable_ckpt(monkeypatch, tmp_path)
    monkeypatch.setenv("REPRO_CHAOS", "preempt:7:1/1")
    stats = SweepStats()
    results = run_many(specs, workers=2, store=None, stats_out=stats,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01))
    assert stats.failed == 0
    assert [r.to_json() for r in results] == [r.to_json() for r in clean]
    # resumed points completed and removed their save-states
    leftovers = list(root.rglob("*.ckpt.gz"))
    assert not leftovers


def test_ckpt_corrupt_chaos_degrades_to_cold_restart(tmp_path, monkeypatch):
    """A torn save-state may cost time, never correctness: preempted
    points whose states are chaos-truncated quarantine and cold-start."""
    specs = specs_for(WORKLOADS)
    clean = run_many(specs, workers=1, store=None)
    clear_memo()
    root = enable_ckpt(monkeypatch, tmp_path)
    monkeypatch.setenv("REPRO_CHAOS", "preempt,ckpt-corrupt:7:1/1")
    results = run_many(specs, workers=1, store=None,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01))
    assert [r.to_json() for r in results] == [r.to_json() for r in clean]
    quarantined = list(root.rglob("quarantine/*"))
    assert quarantined                        # the torn states moved aside


# ----------------------------------------------------------------------
# Manifest: preempt lineage and persistence strikes
# ----------------------------------------------------------------------
def test_manifest_records_preempt_lineage(tmp_path):
    spec = specs_for(WORKLOADS[:1])[0]
    manifest = SweepManifest(tmp_path / "m.json")
    manifest.register(spec)
    manifest.mark_preempted(spec, "/ckpt/ab/abc.ckpt.gz")
    manifest.mark_preempted(spec, "/ckpt/ab/abc.ckpt.gz")
    entry = manifest.points[spec.key()]
    assert entry["preempts"] == 2
    assert entry["ckpt"] == "/ckpt/ab/abc.ckpt.gz"
    assert entry["status"] == "pending"       # still in flight
    loaded = SweepManifest.load(tmp_path / "m.json")
    assert loaded.points[spec.key()]["preempts"] == 2


def test_manifest_checkpoint_aborts_after_three_strikes(
        tmp_path, monkeypatch):
    spec = specs_for(WORKLOADS[:1])[0]
    manifest = SweepManifest(tmp_path / "m.json")
    manifest.register(spec)
    manifest.checkpoint()                     # healthy baseline

    calls = {"fail": True}

    def flaky_save():
        if calls["fail"]:
            raise OSError(28, "No space left on device")
        SweepManifest.save.__get__(manifest)()

    monkeypatch.setattr(manifest, "save", flaky_save)
    manifest.checkpoint()                     # strike 1: warns
    manifest.checkpoint()                     # strike 2: warns
    with pytest.raises(ManifestPersistError) as excinfo:
        manifest.checkpoint()                 # strike 3: aborts
    assert excinfo.value.strikes == 3
    assert "No space left" in str(excinfo.value)

    # a successful write resets the strike counter
    calls["fail"] = False
    manifest.checkpoint()
    calls["fail"] = True
    manifest.checkpoint()                     # strike 1 again, no raise


# ----------------------------------------------------------------------
# SIGTERM mid-sweep on the persistent pool (parent side)
# ----------------------------------------------------------------------
def test_sigterm_mid_sweep_persistent_pool_flushes_and_resumes(
        isolated, tmp_path):
    specs = specs_for(WORKLOADS)
    path = tmp_path / "m.json"
    fired = []

    def interrupt_after_first(stats, spec, event):
        if event == "simulated" and not fired:
            fired.append(1)
            os.kill(os.getpid(), signal.SIGTERM)

    try:
        with supervised_sweep(manifest=SweepManifest(path)):
            with pytest.raises(SweepInterrupted):
                run_many(specs, workers=2, progress=interrupt_after_first)

        loaded = SweepManifest.load(path)      # handler flushed the ledger
        assert loaded.counts()["done"] >= 1

        clear_memo()
        with supervised_sweep(manifest=loaded):
            results = run_many(specs, workers=2)
        assert all(r is not None for r in results)

        # a second --resume is a no-op re-check: everything store-served
        clear_memo()
        stats = SweepStats()
        with supervised_sweep(manifest=SweepManifest.load(path)):
            results = run_many(specs, workers=2, stats_out=stats)
        assert all(r is not None for r in results)
        assert stats.simulated == 0
        assert stats.store_hits + stats.memo_hits == len(specs)
        assert SweepManifest.load(path).counts()["done"] == len(specs)
    finally:
        shutdown_shared_pool()
