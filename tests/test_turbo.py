"""The warm worker pool: run configs shipped in task messages, worker
reuse across sweeps, and the CLI's stdout/stderr purity when the store
misbehaves."""

import json

import pytest

from repro.checks.chaos import parse_chaos
from repro.harness import ExperimentSpec, ResultStore, run_many
from repro.harness.config import RunConfig
from repro.harness.runner import SweepStats, clear_memo
from repro.harness.store import reset_default_store, set_default_store
from repro.harness import turbo
from repro.harness.turbo import shared_pool, shutdown_shared_pool

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
# Run configs travel in the task message
# ----------------------------------------------------------------------
def test_config_change_reaches_warm_workers(tmp_path):
    """Two ``run_many`` calls on one warm pool: each point runs under its
    own call's config, never a previous task's.  Chaos ``corrupt`` on ->
    off, and trace-cache directory A -> B, on the same worker processes
    (workers write the trace cache, the parent writes the store)."""
    from repro.workloads.tracecache import TraceCache
    specs = specs_for(WORKLOADS[:2])
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    torn = ResultStore(tmp_path / "torn")
    run_many(specs, workers=2, store=torn,
             config=RunConfig(chaos=parse_chaos("corrupt:1:1/1"),
                              trace_cache=dir_a))
    pids = sorted(w.proc.pid for w in turbo._SHARED._workers)
    assert len(torn.fsck().quarantined) == len(specs)
    assert len(TraceCache(dir_a).fsck().quarantined) == len(specs)

    clear_memo()
    clean = ResultStore(tmp_path / "clean")
    run_many(specs, workers=2, store=clean,
             config=RunConfig(trace_cache=dir_b))
    assert sorted(w.proc.pid for w in turbo._SHARED._workers) == pids
    assert clean.fsck().ok == len(specs)               # chaos is off
    assert TraceCache(dir_b).fsck().ok == len(specs)   # traces land in B
    assert TraceCache(dir_a).fsck().scanned == 0       # A untouched


# ----------------------------------------------------------------------
# The amortization claim: workers survive across run_many calls
# ----------------------------------------------------------------------
def test_pool_workers_are_reused_across_sweeps():
    stats = SweepStats()
    run_many(specs_for(WORKLOADS[:2]), workers=2, store=None,
             stats_out=stats)
    assert stats.pool_used
    assert turbo._SHARED is not None
    first_pids = sorted(w.proc.pid for w in turbo._SHARED._workers)
    assert len(first_pids) == 2

    clear_memo()
    run_many(specs_for(WORKLOADS), workers=2, store=None)
    second_pids = sorted(w.proc.pid for w in turbo._SHARED._workers)
    assert second_pids == first_pids      # same warm processes, no respawn
    assert all(w.proc.is_alive() for w in turbo._SHARED._workers)


def test_shared_pool_resizes_by_restart():
    pool = shared_pool(2)
    assert shared_pool(2) is pool          # stable at the same width
    wider = shared_pool(3)
    assert wider is not pool and wider.n_workers == 3
    shutdown_shared_pool()
    shutdown_shared_pool()                 # idempotent
    assert turbo._SHARED is None


def test_cli_sweep_process_exits_cleanly(tmp_path):
    """Regression: pool workers fork while the supervisor's SIGINT/
    SIGTERM handlers are installed; a worker keeping those handlers
    survives terminate() and multiprocessing's atexit join then hangs
    the CLI process forever after the sweep already printed."""
    import os
    import subprocess
    import sys
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.path.join(repo, "src"),
               REPRO_RESULT_STORE=str(tmp_path / "store"),
               REPRO_TRACE_CACHE=str(tmp_path / "traces"))
    campaign = tmp_path / "exit.json"
    campaign.write_text(json.dumps({
        "schema": "repro.campaign/v1", "name": "exit",
        "defaults": {"records": 200},
        "grids": [{"id": "g", "suite": "spec", "workloads": ["429.mcf"],
                   "policies": ["lru", "srrip", "care"], "cores": [4]}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "run", str(campaign),
         "--workers", "2", "--quiet"],
        cwd=tmp_path, env=env, timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# Satellite: --json stdout stays parseable when the store fails
# ----------------------------------------------------------------------
class ExplodingStore(ResultStore):
    """A store whose writes always fail (full disk, bad perms, ...)."""

    def put(self, spec, result):
        raise OSError("disk full")


def test_run_json_store_failure_keeps_stdout_pure(tmp_path, capsys):
    from repro.__main__ import main
    set_default_store(ExplodingStore(tmp_path / "bad-store"))
    try:
        assert main(["run", "462.libquantum", "--policies", "lru",
                     "--records", "600", "--json"]) == 0
    finally:
        reset_default_store()
    captured = capsys.readouterr()
    payload = json.loads(captured.out)     # stdout is pure JSON
    assert payload[0]["spec"]["workload"] == "462.libquantum"
    assert "store write failed" in captured.err
