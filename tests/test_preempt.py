"""Checkpoint/preempt harness layer: config, cadence, quarantine
fallback, chaos preempt equivalence on every execution path, manifest
lineage + persistence strikes, and resource guards."""

import os
import signal

import pytest

from repro.checks.chaos import inject_execute, parse_chaos
from repro.harness import ExperimentSpec, ResultStore, run_many
from repro.harness import preempt
from repro.harness.config import RunConfig
from repro.harness.runner import SweepStats, clear_memo
from repro.harness.store import (code_fingerprint, reset_default_store,
                                 set_default_store)
from repro.harness.supervise import (ManifestPersistError, RetryPolicy,
                                     SweepInterrupted, SweepManifest,
                                     supervised_sweep)
from repro.harness.turbo import shutdown_shared_pool

WORKLOADS = ["429.mcf", "462.libquantum", "470.lbm"]


@pytest.fixture(autouse=True)
def isolated(tmp_path):
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


def ckpt_config(tmp_path, events=1000, chaos=None):
    """A run configuration checkpointing into ``tmp_path/ckpt``."""
    return RunConfig(
        checkpoint=preempt.CheckpointConfig(dir=str(tmp_path / "ckpt"),
                                            every_events=events),
        chaos=parse_chaos(chaos) if chaos else None)


def flag_checkpoint(*flags):
    """The CheckpointConfig that ``run --obs-dir o <flags>`` builds."""
    from repro.__main__ import _run_config, build_parser
    return _run_config(build_parser().parse_args(
        ["run", "429.mcf", "--obs-dir", "o", *flags])).checkpoint


# ----------------------------------------------------------------------
# Configuration parsing
# ----------------------------------------------------------------------
def test_checkpoint_from_env_requires_dir(monkeypatch, caplog):
    """Checkpointing is off unless ``--checkpoint`` asks for it; the
    retired ``REPRO_CKPT_DIR`` only draws a warning.  The flag puts the
    states under ``<obs-dir>/ckpt`` and, with no cadence, writes them on
    preemption only."""
    from repro.harness import config
    monkeypatch.setattr(config, "_WARNED", set())
    monkeypatch.setenv("REPRO_CKPT_DIR", "/tmp/c")
    assert RunConfig.from_env().checkpoint is None
    assert any(r.getMessage().startswith("ignoring REPRO_CKPT_DIR:")
               for r in caplog.records)
    assert RunConfig().checkpoint is None
    assert flag_checkpoint() is None
    cfg = flag_checkpoint("--checkpoint")
    assert cfg == preempt.CheckpointConfig(dir=os.path.join("o", "ckpt"))
    assert cfg.every_events is None and cfg.every_secs is None
    policy = preempt.CheckpointPolicy.for_spec(cfg, "k" * 64, "f" * 64)
    assert policy.path == str(preempt.state_path(cfg.dir, "k" * 64))
    assert policy.tick_interval == preempt.DEFAULT_TICK_EVENTS


def test_checkpoint_from_env_parses_cadence_leniently(monkeypatch):
    """``--checkpoint N`` / ``--checkpoint-secs S`` set the cadence;
    non-positive values fall back to no cadence (events floor at 1), and
    the retired ``REPRO_CKPT_EVENTS``/``_SECS`` are ignored, junk and all."""
    ckpt = os.path.join("o", "ckpt")
    monkeypatch.setenv("REPRO_CKPT_EVENTS", "junk")
    monkeypatch.setenv("REPRO_CKPT_SECS", "-1")
    assert RunConfig.from_env().checkpoint is None
    assert flag_checkpoint("--checkpoint", "5000", "--checkpoint-secs",
                           "2.5") == preempt.CheckpointConfig(
                               dir=ckpt, every_events=5000, every_secs=2.5)
    # --checkpoint-secs alone implies --checkpoint
    assert flag_checkpoint("--checkpoint-secs", "-1") == \
        preempt.CheckpointConfig(dir=ckpt)
    assert flag_checkpoint("--checkpoint", "0", "--checkpoint-secs",
                           "0") == preempt.CheckpointConfig(dir=ckpt)
    cfg = flag_checkpoint("--checkpoint", "-3")
    assert cfg.every_events == 1
    policy = preempt.CheckpointPolicy.for_spec(cfg, "k" * 64, "f" * 64)
    assert policy.tick_interval == 1


def test_grace_and_guard_parsing(monkeypatch, caplog):
    """The guards are the environment's to set; the preempt grace is a
    constant, and ``REPRO_PREEMPT_GRACE`` only draws a warning."""
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
    config = ckpt_config(tmp_path)
    spec = specs_for(WORKLOADS[:1])[0]
    seen = []
    original = preempt.save_state

    def spy(policy):
        seen.append(policy.system.engine.events_processed)
        return original(policy)

    monkeypatch.setattr(preempt, "save_state", spy)
    clean = spec.execute(config)
    assert seen and seen == sorted(seen)         # periodic saves happened
    assert all(n % 1000 == 0 for n in seen)      # at watcher boundaries
    # ...and the completed run cleaned its state up
    assert not preempt.state_path(tmp_path / "ckpt", spec.key()).exists()
    # a checkpointed run is byte-identical to an unobserved one
    assert spec.execute(RunConfig()).to_json() == clean.to_json()


def test_preempt_then_reexecute_resumes(tmp_path):
    config = ckpt_config(tmp_path)
    spec = specs_for(WORKLOADS[:1])[0]
    preempt.request_preempt()
    with pytest.raises(preempt.PreemptedError) as excinfo:
        spec.execute(config)
    assert excinfo.value.events == 1000
    notes = {}
    resumed = spec.execute(config, notes=notes)
    assert notes == {"resumed": 1000}
    assert resumed.to_json() == spec.execute(RunConfig()).to_json()


def test_corrupt_state_quarantines_and_cold_starts(tmp_path):
    config = ckpt_config(tmp_path)
    spec = specs_for(WORKLOADS[:1])[0]
    preempt.request_preempt()
    with pytest.raises(preempt.PreemptedError):
        spec.execute(config)
    path = preempt.state_path(tmp_path / "ckpt", spec.key())
    path.write_bytes(path.read_bytes()[:100])            # torn write
    notes = {}
    result = spec.execute(config, notes=notes)
    assert "CorruptSavestate" in notes["quarantined"]
    assert "resumed" not in notes                        # cold start
    assert (path.parent / "quarantine" / path.name).is_file()
    assert result.to_json() == spec.execute(RunConfig()).to_json()


def test_stale_state_quarantines_and_cold_starts(tmp_path):
    from repro.sim.savestate import encode_savestate
    config = ckpt_config(tmp_path)
    spec = specs_for(WORKLOADS[:1])[0]
    preempt.request_preempt()
    with pytest.raises(preempt.PreemptedError):
        spec.execute(config)
    path = preempt.state_path(tmp_path / "ckpt", spec.key())
    # re-sign the valid state with a foreign code fingerprint
    from repro.sim.savestate import decode_savestate
    system = decode_savestate(path.read_bytes(), spec_key=spec.key(),
                              fingerprint=code_fingerprint())
    path.write_bytes(encode_savestate(system, spec_key=spec.key(),
                                      fingerprint="f" * 64))
    notes = {}
    spec.execute(config, notes=notes)
    assert "StaleSavestate" in notes["quarantined"]
    assert (path.parent / "quarantine" / path.name).is_file()


# ----------------------------------------------------------------------
# Chaos preempt: every execution path converges to fault-free results
# ----------------------------------------------------------------------
def test_chaos_preempt_noops_without_checkpointing():
    cfg = parse_chaos("preempt:7:1/1")
    inject_execute(cfg, "k" * 64, 0, disruptive_ok=False)
    assert not preempt.preempt_requested()
    inject_execute(cfg, "k" * 64, 0, disruptive_ok=False,
                   checkpointing=True)
    assert preempt.preempt_requested()
    preempt.clear_preempt()


def test_serial_sweep_preempted_points_resume_identically(tmp_path):
    specs = specs_for(WORKLOADS)
    clean = run_many(specs, workers=1, store=None)
    clear_memo()
    stats = SweepStats()
    results = run_many(specs, workers=1, store=None, stats_out=stats,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01),
                       config=ckpt_config(tmp_path, chaos="preempt:7:1/1"))
    assert stats.retried == len(specs)        # every point was preempted
    assert stats.failed == 0
    assert [r.to_json() for r in results] == [r.to_json() for r in clean]


def test_pool_sweep_preempted_points_resume_identically(tmp_path):
    specs = specs_for(WORKLOADS)
    clean = run_many(specs, workers=1, store=None)
    clear_memo()
    stats = SweepStats()
    results = run_many(specs, workers=2, store=None, stats_out=stats,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01),
                       config=ckpt_config(tmp_path, chaos="preempt:7:1/1"))
    assert stats.failed == 0
    assert [r.to_json() for r in results] == [r.to_json() for r in clean]
    # resumed points completed and removed their save-states
    leftovers = list((tmp_path / "ckpt").rglob("*.ckpt.gz"))
    assert not leftovers


def test_ckpt_corrupt_chaos_degrades_to_cold_restart(tmp_path):
    """A torn save-state may cost time, never correctness: preempted
    points whose states are chaos-truncated quarantine and cold-start."""
    specs = specs_for(WORKLOADS)
    clean = run_many(specs, workers=1, store=None)
    clear_memo()
    results = run_many(specs, workers=1, store=None,
                       retry=RetryPolicy(max_attempts=3, backoff=0.01),
                       config=ckpt_config(tmp_path,
                                          chaos="preempt,ckpt-corrupt:7:1/1"))
    assert [r.to_json() for r in results] == [r.to_json() for r in clean]
    quarantined = list((tmp_path / "ckpt").rglob("quarantine/*"))
    assert quarantined                        # the torn states moved aside


def test_pool_guard_breach_preempts_busy_workers(tmp_path, monkeypatch):
    """The pool's resource-guard loop: a disk-free floor above the free
    space preempts every busy worker; without checkpointing and with one
    attempt, each point fails as ``preempted``, names the floor, and
    leaves a ``guard`` incident.  Chaos ``hang`` keeps the workers busy,
    so the check cannot race a point's completion."""
    from repro.obs.incidents import IncidentLog
    monkeypatch.chdir(tmp_path)         # no ckpt dir: the guard checks "."
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
