"""Resource guards, the manifest's persistence strikes, and SIGTERM on
the worker pool.  A point whose worker a guard or the watchdog kills
restarts cold on its retry."""

import os
import signal

import pytest

from repro.checks.chaos import parse_chaos
from repro.harness import ExperimentSpec, ResultStore, run_many
from repro.harness import preempt
from repro.harness.config import RunConfig
from repro.harness.runner import SweepStats, clear_memo
from repro.harness.store import reset_default_store, set_default_store
from repro.harness.supervise import (ManifestPersistError, RetryPolicy,
                                     SweepInterrupted, SweepManifest,
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


# ----------------------------------------------------------------------
# Configuration parsing
# ----------------------------------------------------------------------
def test_grace_and_guard_parsing(monkeypatch, caplog):
    """The guards are the environment's to set, and the retired
    ``REPRO_PREEMPT_GRACE`` only draws a warning."""
    from repro.harness import config
    monkeypatch.setattr(config, "_WARNED", set())
    monkeypatch.delenv("REPRO_RSS_BUDGET_MB", raising=False)
    monkeypatch.delenv("REPRO_DISK_FLOOR_MB", raising=False)
    assert not RunConfig.from_env().guards.enabled
    assert not RunConfig().guards.enabled
    monkeypatch.setenv("REPRO_RSS_BUDGET_MB", "512")
    monkeypatch.setenv("REPRO_DISK_FLOOR_MB", "100")
    guards = RunConfig.from_env().guards
    assert guards.enabled
    assert guards.rss_budget_mb == 512 and guards.disk_floor_mb == 100
    monkeypatch.setenv("REPRO_RSS_BUDGET_MB", "-5")
    monkeypatch.setenv("REPRO_DISK_FLOOR_MB", "nope")
    assert not RunConfig.from_env().guards.enabled
    monkeypatch.setenv("REPRO_PREEMPT_GRACE", "2.5")
    RunConfig.from_env()
    assert any(r.getMessage().startswith("ignoring REPRO_PREEMPT_GRACE:")
               for r in caplog.records)


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


def test_pool_guard_breach_preempts_busy_workers(tmp_path, monkeypatch):
    """The pool's resource-guard loop: a disk-free floor above the free
    space kills every busy worker; with one attempt, each point fails
    as ``preempted``, names the floor, and
    leaves a ``guard`` incident.  Chaos ``hang`` keeps the workers busy,
    so the check cannot race a point's completion."""
    from repro.obs.incidents import IncidentLog
    monkeypatch.chdir(tmp_path)         # the guard checks "."
    floor = preempt.disk_free_mb(tmp_path) * 2 + 1024
    config = RunConfig(chaos=parse_chaos("hang:3:1/1"),
                       guards=preempt.ResourceGuards(disk_floor_mb=floor))
    specs = specs_for(WORKLOADS[:2])
    incidents = IncidentLog(tag="guard")
    with supervised_sweep(retry=RetryPolicy(max_attempts=1),
                          incidents=incidents) as sup:
        results = run_many(specs, workers=2, store=None, config=config)
    assert results == [None, None]
    assert sorted(f.spec.key() for f in sup.failures) == \
        sorted(s.key() for s in specs)
    for failure in sup.failures:
        assert failure.kind == "preempted"
        assert f"under the {floor:.0f} MiB floor" in failure.message
    guard = [e for e in incidents.events if e["event"] == "guard"]
    assert len(guard) == len(specs)
    assert all("floor" in e["reason"] for e in guard)


# ----------------------------------------------------------------------
# Manifest: persistence strikes
# ----------------------------------------------------------------------
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
