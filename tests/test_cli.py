"""The ``python -m repro`` command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main


@pytest.fixture(autouse=True)
def _cwd_in_tmp(tmp_path, monkeypatch):
    """Run every command from a scratch directory: the CLI's relative
    defaults (``--obs-dir obs``, ``--resume``'s ``sweep.manifest.json``)
    would otherwise write incident logs and ledgers into the checkout."""
    monkeypatch.chdir(tmp_path)


def test_policies_command(capsys):
    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    for name in ("lru", "care", "mcare", "shippp", "hawkeye"):
        assert name in out


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "429.mcf" in out and "bfs-or" in out
    assert "26.28" in out      # Table VIII MPKI shown


def test_studycase_command(capsys):
    assert main(["studycase"]) == 0
    out = capsys.readouterr().out
    assert "7/3" in out
    assert "[10, 11, 12, 13, 14]" in out


def test_hwcost_command(capsys):
    assert main(["hwcost"]) == 0
    out = capsys.readouterr().out
    assert "26.64" in out and "6.76" in out


def test_run_command_spec(capsys):
    assert main(["run", "462.libquantum", "--policies", "lru", "care",
                 "--records", "1000"]) == 0
    out = capsys.readouterr().out
    assert "462.libquantum" in out
    assert "care" in out


def test_run_command_gap(capsys):
    assert main(["run", "bfs-or", "--policies", "lru",
                 "--records", "800", "--prefetch"]) == 0
    out = capsys.readouterr().out
    assert "bfs-or" in out and "prefetch=on" in out


def test_run_without_no_store_leaves_the_user_cache_alone(
        tmp_path, monkeypatch, capsys):
    """A stored ``run`` writes under the session's store and trace cache
    (``tests/conftest.py``), not under ``~/.cache/repro-care``."""
    from repro.harness.runner import clear_memo
    from repro.harness.store import reset_default_store
    from repro.workloads.tracecache import reset_default_trace_cache
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    clear_memo()
    reset_default_store()
    reset_default_trace_cache()
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "300"]) == 0
    assert "462.libquantum" in capsys.readouterr().out
    assert not (home / ".cache" / "repro-care").exists()
    session_store = Path(os.environ["REPRO_RESULT_STORE"])
    assert list(session_store.glob("*/*/*.json"))


def test_run_command_json(capsys):
    import json
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "600", "--json", "--no-store"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    entry = payload[0]
    assert entry["spec"]["workload"] == "462.libquantum"
    assert entry["spec"]["policy"] == "lru"
    from repro.sim.stats import SimResult
    res = SimResult.from_dict(entry["result"])
    assert res.policy == "lru" and res.n_cores == 1


def write_campaign(tmp_path):
    """A three-point one-core campaign file (tiny preset, 200 records)."""
    from repro.harness.campaign import CAMPAIGN_SCHEMA
    path = tmp_path / "cli.json"
    path.write_text(json.dumps({
        "schema": CAMPAIGN_SCHEMA, "name": "cli",
        "defaults": {"records": 200, "preset": "tiny"},
        "grids": [{"id": "g1", "suite": "spec",
                   "workloads": ["462.libquantum"],
                   "policies": ["lru", "srrip", "care"], "cores": [1]}]}))
    return path


def test_sweep_command_runs_and_reports(capsys, tmp_path):
    from repro.harness.store import (ResultStore, reset_default_store,
                                     set_default_store)
    from repro.harness.runner import clear_memo
    argv = ["campaign", "run", str(write_campaign(tmp_path)),
            "--workers", "1", "--quiet"]
    clear_memo()
    set_default_store(ResultStore(tmp_path / "store"))
    try:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3/3 distinct point(s) in store" in out
        assert "simulated" in out        # sweep stats line
        # fresh "process": memo dropped, second run is all store hits
        clear_memo()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 store hits, 0 simulated" in out
    finally:
        clear_memo()
        reset_default_store()


def test_run_rejects_zero_records(capsys):
    assert main(["run", "429.mcf", "--records", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_check_command_clean_file(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def add(a, b):\n    return a + b\n")
    assert main(["check", str(clean)]) == 0
    assert "simsan: clean" in capsys.readouterr().out


def test_check_command_reports_findings(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def merge(dst, extras=[]):\n    dst.extend(extras)\n")
    assert main(["check", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "SS301" in out and "simsan: skip=" in out


def test_check_command_fix_hints(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def merge(dst, extras=[]):\n    dst.extend(extras)\n")
    assert main(["check", "--fix-hints", str(dirty)]) == 1
    assert "fix:" in capsys.readouterr().out


def test_check_command_syntax_error(capsys, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_command_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SS101" in out and "SS302" in out


def test_check_command_repo_tree_is_clean(capsys):
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    assert main(["check", str(src)]) == 0


def test_check_flow_repo_tree_is_clean(capsys):
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    assert main(["check", "--flow", str(src)]) == 0
    assert "clean (lint+flow)" in capsys.readouterr().out


def test_check_format_json(capsys, tmp_path):
    import json
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def merge(dst, extras=[]):\n    dst.extend(extras)\n")
    assert main(["check", "--format", "json", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "repro.simsan.findings/v1"
    assert payload["clean"] is False
    assert payload["findings"][0]["rule"] == "SS301"
    assert payload["findings"][0]["line"] == 1


def test_check_format_github_annotations(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def merge(dst, extras=[]):\n    dst.extend(extras)\n")
    assert main(["check", "--format", "github", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert f"file={dirty}" in out and "line=1" in out and "title=SS301" in out


def test_check_call_graph_export_json_and_dot(capsys, tmp_path):
    from pathlib import Path
    import json
    src = Path(__file__).resolve().parent.parent / "src"
    graph_json = tmp_path / "graph.json"
    assert main(["check", "--call-graph", str(graph_json), str(src)]) == 0
    payload = json.loads(graph_json.read_text())
    assert payload["schema"] == "repro.flow.call-graph/v1"
    assert any(n["hot"] for n in payload["nodes"])
    assert any(n["worker"] for n in payload["nodes"])
    graph_dot = tmp_path / "graph.dot"
    assert main(["check", "--call-graph", str(graph_dot), str(src)]) == 0
    assert graph_dot.read_text().startswith("digraph")


def test_check_flow_detects_seeded_unsafe_worker(capsys, tmp_path):
    # a stale suppression is the one flow/lint defect a standalone file
    # can carry (flow rules need the real manifests); SS303 must fire
    stale = tmp_path / "stale.py"
    stale.write_text("def add(a, b):\n"
                     "    return a + b   # simsan: skip=SS301\n")
    assert main(["check", str(stale)]) == 1
    assert "SS303" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Fault tolerance: chaos sweeps, resume, fsck, incident reports
# ----------------------------------------------------------------------
@pytest.fixture
def sweep_env(tmp_path):
    """Isolated store + memo for supervised-CLI tests."""
    from repro.harness.runner import clear_memo
    from repro.harness.store import (ResultStore, reset_default_store,
                                     set_default_store)
    clear_memo()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    yield store
    clear_memo()
    reset_default_store()


#: the two commands that run a supervised sweep
SUPERVISED = ("run", "campaign")


def supervised_argv(command, tmp_path):
    """``(argv, incident tag, output marker)`` for a small one-worker
    sweep through ``command``.  Chaos ``raise:11:1/3`` fails at least
    one of its points and spares at least one."""
    if command == "run":
        return (["run", "462.libquantum", "--policies", "lru", "srrip",
                 "care", "--records", "400", "--workers", "1"],
                "run-462.libquantum", "records/core")
    # campaign run writes its manifest to the current directory, which
    # the autouse fixture keeps inside tmp_path
    return (["campaign", "run", str(write_campaign(tmp_path)),
             "--workers", "1", "--quiet"],
            "campaign-cli", "point(s) in store")


def test_sweep_chaos_fails_with_table_then_resumes(sweep_env, tmp_path,
                                                   capsys):
    from repro.harness.runner import clear_memo
    from repro.harness.store import ResultStore, set_default_store
    path = str(write_campaign(tmp_path))
    base = ["campaign", "run", path, "--workers", "1", "--quiet",
            "--manifest", str(tmp_path / "m.json"),
            "--obs-dir", str(tmp_path / "obs")]
    assert main(base + ["--chaos", "raise:11:1/3"]) == 3
    captured = capsys.readouterr()
    assert "point(s) in store" in captured.out   # healthy points finished
    assert "point(s) failed" in captured.err
    assert "ChaosError" in captured.err
    assert "--resume" in captured.err

    # chaos off + --resume completes and matches a fault-free sweep
    clear_memo()
    assert main(base + ["--resume"]) == 0
    clean = ResultStore(tmp_path / "clean")
    set_default_store(clean)
    clear_memo()
    assert main(["campaign", "run", path, "--workers", "1", "--quiet",
                 "--manifest", str(tmp_path / "clean.json")]) == 0
    capsys.readouterr()

    def report(store):
        assert main(["campaign", "report", path, "--store", str(store.root),
                     "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["grids"]
    resumed = report(sweep_env)
    assert resumed[0]["done"] == 3
    assert resumed == report(clean)


@pytest.mark.parametrize("command", SUPERVISED)
def test_sweep_fail_fast_aborts(command, sweep_env, tmp_path, capsys):
    argv, _, marker = supervised_argv(command, tmp_path)
    assert main(argv + ["--fail-fast", "--obs-dir", str(tmp_path / "obs"),
                        "--chaos", "raise:11:1/3"]) == 3
    captured = capsys.readouterr()
    assert marker not in captured.out        # aborted before the output
    assert "point(s) failed" in captured.err


@pytest.mark.parametrize("command", SUPERVISED)
def test_sweep_writes_incident_artifact(command, sweep_env, tmp_path,
                                        capsys):
    argv, tag, _ = supervised_argv(command, tmp_path)
    obs_dir = tmp_path / "obs"
    assert main(argv + ["--obs-dir", str(obs_dir),
                        "--chaos", "raise:11:1/3"]) == 3
    capsys.readouterr()
    artifact = obs_dir / f"{tag}.incidents.json"
    assert artifact.is_file()
    payload = json.loads(artifact.read_text())
    assert payload["tag"] == tag
    assert any(e["event"] == "failure" for e in payload["events"])

    # and `report --incidents` renders it as a markdown section
    assert main(["report", "--incidents", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert f"### Incidents ({tag})" in out
    assert "ChaosError" in out


@pytest.mark.parametrize("command", SUPERVISED)
def test_sigint_mid_sweep_writes_incident_log(command, sweep_env, tmp_path,
                                              monkeypatch, capsys):
    """A real SIGINT after the first simulated point: exit 130, and the
    incident log holds the supervisor's ``interrupt`` event."""
    import os
    import signal

    from repro.harness.spec import ExperimentSpec
    argv, tag, _ = supervised_argv(command, tmp_path)
    execute = ExperimentSpec.execute
    fired = []

    def execute_then_interrupt(self, *args, **kwargs):
        result = execute(self, *args, **kwargs)
        if not fired:
            fired.append(self)
            os.kill(os.getpid(), signal.SIGINT)
        return result

    monkeypatch.setattr(ExperimentSpec, "execute", execute_then_interrupt)
    obs_dir = tmp_path / "obs"
    assert main(argv + ["--obs-dir", str(obs_dir)]) == 130
    assert "interrupted with 1 point(s) done" in capsys.readouterr().err
    payload = json.loads((obs_dir / f"{tag}.incidents.json").read_text())
    assert any(e["event"] == "interrupt" for e in payload["events"])


@pytest.mark.parametrize("command", SUPERVISED)
def test_observers_write_metrics_for_every_simulated_point(
        command, sweep_env, tmp_path, capsys):
    argv, _, _ = supervised_argv(command, tmp_path)
    obs_dir = tmp_path / "obs"
    assert main(argv + ["--metrics-interval", "500",
                        "--obs-dir", str(obs_dir)]) == 0
    simulated = len(list(sweep_env.entries()))   # the store started empty
    assert simulated > 0
    assert len(list(obs_dir.glob("*.metrics.json"))) == simulated


def test_run_command_reports_failures(sweep_env, tmp_path, capsys):
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "600", "--no-store", "--json",
                 "--obs-dir", str(tmp_path / "obs"),
                 "--chaos", "raise:0:1/1", "--retries", "1"]) == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload[0]["result"] is None
    assert "ChaosError" in captured.err


def test_supervise_flag_validation(capsys, tmp_path):
    path = str(write_campaign(tmp_path))
    assert main(["campaign", "run", path, "--chaos", "explode:1"]) == 2
    assert "unknown chaos fault" in capsys.readouterr().err
    assert main(["campaign", "run", path, "--retries", "0"]) == 2
    assert "--retries" in capsys.readouterr().err
    assert main(["run", "429.mcf", "--timeout", "-1"]) == 2
    assert "--timeout" in capsys.readouterr().err


def test_run_flags_build_one_run_config(monkeypatch):
    """``run``/``campaign run`` flags become one RunConfig; only the
    deployment settings come from the environment."""
    from repro.__main__ import _run_config
    from repro.checks.chaos import parse_chaos
    from repro.harness.config import ResourceGuards
    from repro.obs import ObsConfig

    monkeypatch.setenv("REPRO_TRACE_CACHE", "/env/traces")
    monkeypatch.setenv("REPRO_RSS_BUDGET_MB", "512")

    def config(*flags, command=("run", "429.mcf")):
        return _run_config(build_parser().parse_args(
            [*command, "--obs-dir", "o", *flags]))

    plain = config()
    assert (plain.sanitize, plain.obs, plain.chaos) == (False, None, None)
    assert plain.trace_cache == "/env/traces"
    assert plain.guards == ResourceGuards(rss_budget_mb=512)
    full = config("--sanitize", "--chaos", "flaky:3:1/2", "--trace",
                  "--trace-sample", "8", "--metrics-interval", "500",
                  "--trace-cache", "off", command=("campaign", "run"))
    assert full.sanitize and full.chaos == parse_chaos("flaky:3:1/2")
    assert full.obs == ObsConfig(metrics_interval=500, trace=True,
                                 trace_sample=8, out_dir="o")
    assert full.trace_cache is None
    assert config("--trace-cache", "/flag").trace_cache == "/flag"


def test_run_flags_do_not_leak_into_a_later_main_call(sweep_env, tmp_path,
                                                      monkeypatch):
    """Regression: one ``main()`` call's flags must not outlive it.  A
    traced, sanitized first run used to leave a plain second run traced
    (into the first run's --obs-dir) and sanitized."""
    from repro.checks import sanitize
    calls = {"sanitize": 0}
    attach = sanitize.attach_sanitizer

    def counting_attach(*args, **kwargs):
        calls["sanitize"] += 1
        return attach(*args, **kwargs)

    monkeypatch.setattr(sanitize, "attach_sanitizer", counting_attach)
    base = ["run", "462.libquantum", "--records", "400", "--no-store"]
    assert main(base + ["--policies", "lru", "--trace", "--sanitize",
                        "--obs-dir", str(tmp_path / "obs1")]) == 0
    assert calls == {"sanitize": 1}
    assert main(base + ["--policies", "srrip",
                        "--obs-dir", str(tmp_path / "obs2")]) == 0
    assert calls == {"sanitize": 1}   # plain second run
    traces = [p.relative_to(tmp_path).as_posix()
              for p in tmp_path.rglob("*.trace.json")]
    assert traces == ["obs1/462.libquantum-lru-1c-nopf-49ca0c14b9f4.trace.json"]


def test_store_fsck_validates_manifests(sweep_env, tmp_path, capsys):
    manifest = tmp_path / "m.manifest.json"
    assert main(["campaign", "run", str(write_campaign(tmp_path)),
                 "--workers", "1", "--quiet",
                 "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    assert main(["store", "fsck", "--manifests", str(manifest)]) == 0
    assert "manifests fsck:" in capsys.readouterr().out

    text = manifest.read_text()
    manifest.write_text(text[:len(text) // 2])
    assert main(["store", "fsck", "--manifests", str(manifest)]) == 1
    out = capsys.readouterr().out
    assert "1 quarantined" in out and "fresh ledger" in out
    assert (tmp_path / "quarantine" / manifest.name).is_file()
    assert main(["store", "fsck", "--manifests", str(manifest)]) == 0


def test_resume_quarantines_an_unreadable_manifest(sweep_env, tmp_path,
                                                   capsys):
    from repro.harness.supervise import SweepManifest
    manifest = tmp_path / "m.manifest.json"
    manifest.write_text("[]")
    assert main(["campaign", "run", str(write_campaign(tmp_path)),
                 "--workers", "1", "--quiet", "--manifest", str(manifest),
                 "--resume"]) == 0
    assert "quarantined the unreadable manifest" in capsys.readouterr().err
    assert (tmp_path / "quarantine" / manifest.name).read_text() == "[]"
    assert SweepManifest.load(manifest).counts()["done"] == 3


def test_resume_finishes_a_ledger_with_preempt_lineage(sweep_env, tmp_path,
                                                       capsys):
    """Ledgers written while points could be preempted mid-run carry
    ``preempts`` and ``ckpt`` keys on their entries.  Such a ledger still
    passes fsck, and ``--resume`` finishes every point in it."""
    from repro.harness.campaign import load_campaign
    from repro.harness.supervise import SweepManifest, fsck_manifests
    path = write_campaign(tmp_path)
    done, pending, failed = load_campaign(path).specs()
    points = {}
    for spec, status, preempts, ckpt in (
            (done, "done", 1, "obs/ckpt/aa/a.ckpt.gz"),
            (pending, "pending", 2, "obs/ckpt/bb/b.ckpt.gz"),
            (failed, "failed", 1, None)):
        points[spec.key()] = {
            "spec": spec.to_dict(), "label": spec.label(),
            "status": status, "attempts": 3 if status == "failed" else 0,
            "error": None, "preempts": preempts, "ckpt": ckpt}
    points[failed.key()]["error"] = {
        "kind": "preempted", "error": "WorkerPreempted",
        "message": "preempted at 1000 events", "permanent": False}
    manifest = tmp_path / "m.manifest.json"
    manifest.write_text(json.dumps({"version": 1, "sweep": "campaign-cli",
                                    "meta": {}, "points": points}))
    report = fsck_manifests([manifest])
    assert (report.ok, report.quarantined) == (1, [])
    assert main(["campaign", "run", str(path), "--workers", "1", "--quiet",
                 "--manifest", str(manifest), "--resume"]) == 0
    assert "1 point(s) done, 1 failed point(s) re-queued" in \
        capsys.readouterr().err
    assert SweepManifest.load(manifest).counts() == {
        "pending": 0, "done": 3, "failed": 0}


def test_store_fsck_command(sweep_env, capsys):
    assert main(["run", "462.libquantum", "--policies", "lru",
                 "--records", "600"]) == 0
    capsys.readouterr()
    assert main(["store"]) == 0               # bare `store` prints stats
    assert "entries:" in capsys.readouterr().out
    assert main(["store", "fsck"]) == 0       # clean store
    assert "0 quarantined" in capsys.readouterr().out

    [path] = list(sweep_env.entries())
    path.write_text("{broken json")
    assert main(["store", "fsck"]) == 1       # corrupt -> quarantine, exit 1
    out = capsys.readouterr().out
    assert "1 quarantined" in out and "re-simulates" in out
    assert main(["store", "fsck"]) == 0       # second pass is clean
