"""Import-path hygiene: what ships, and what a cold start loads.

* Every ``repro`` module, and every committed graph file under
  ``repro/workloads/data/``, must be a file git tracks.  An ignore rule
  once matched ``src/repro/obs/`` and kept ``incidents.py`` out of every
  commit while it still imported fine in the working tree.
* No ``repro`` module imports numpy or scipy (the package has no
  third-party runtime dependency), so no process that generates a SPEC,
  GAP, serving or mix trace pays for importing them, and one SPEC-like
  point loads neither the sweep machinery nor the GAP and serving
  generators.
* Only ``repro.harness.config`` reads the environment, which holds four
  deployment settings; every other run setting travels in a
  ``RunConfig``.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]


def _git_tracked_files():
    try:
        proc = subprocess.run(["git", "ls-files", "-z"], cwd=REPO,
                              capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return {REPO / name for name in
            proc.stdout.decode().split("\0") if name}


def test_every_repro_module_is_tracked_by_git():
    tracked = _git_tracked_files()
    if tracked is None:
        pytest.skip("not inside a git checkout")
    pkg_dir = Path(repro.__file__).resolve().parent
    if REPO not in pkg_dir.parents:
        pytest.skip("repro is imported from outside this checkout")
    loaded = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        loaded.append(importlib.import_module(info.name))
    untracked = sorted(
        m.__name__ for m in loaded
        if Path(m.__file__).resolve() not in tracked)
    assert not untracked, (
        f"modules import from files git does not track (ignored or never "
        f"added): {untracked}")


def test_every_graph_data_file_is_tracked_by_git():
    tracked = _git_tracked_files()
    if tracked is None:
        pytest.skip("not inside a git checkout")
    from repro.workloads.graphs import DATA_DIR, GRAPH_SPECS
    if REPO not in DATA_DIR.resolve().parents:
        pytest.skip("repro is imported from outside this checkout")
    files = {path.resolve() for path in DATA_DIR.iterdir() if path.is_file()}
    assert {spec.path.resolve() for spec in GRAPH_SPECS.values()} <= files
    untracked = sorted(path.name for path in files if path not in tracked)
    assert not untracked, (
        f"graph data git does not track (ignored or never added): "
        f"{untracked}")


def test_only_the_run_config_module_reads_the_environment():
    pkg_dir = Path(repro.__file__).resolve().parent
    readers, names = [], set()
    for path in sorted(pkg_dir.rglob("*.py")):
        rel = path.relative_to(pkg_dir).as_posix()
        text = path.read_text()
        names.update(re.findall(r"REPRO_[A-Z0-9_]+", text))
        # SimSan's lint and flow passes name the env APIs they police
        if not rel.startswith(("checks/lint/", "checks/flow/")) \
                and re.search(r"os\.environ|getenv", text):
            readers.append(rel)
    assert readers == ["harness/config.py"]
    assert names == {"REPRO_RESULT_STORE", "REPRO_TRACE_CACHE",
                     "REPRO_RSS_BUDGET_MB", "REPRO_DISK_FLOOR_MB"}


COLD_START = textwrap.dedent("""
    import sys
    import repro, repro.harness, repro.harness.spec, repro.harness.runner
    import repro.sim.backends, repro.workloads, repro.obs, repro.__main__
    early = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
    import repro.analysis
    from repro.workloads import gap_trace
    assert len(gap_trace("bfs-or", n_records=500)) == 500
    late = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
    print(",".join(early) + "|" + ",".join(late))
""")


def test_cold_import_loads_neither_numpy_nor_scipy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=REPO,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    early, late = proc.stdout.strip().split("|")
    assert early == "", f"loaded by a plain import: {early}"
    assert late == "", f"loaded by the analysis or GAP code: {late}"


ONE_POINT = textwrap.dedent("""
    import sys
    from repro.harness.spec import ExperimentSpec
    from repro.sim.backends import build_system
    spec = ExperimentSpec(workload="429.mcf", policy="care", n_cores=1,
                          n_records=100, preset="tiny")
    traces = spec.build_traces()
    build_system(spec.build_config(), traces, llc_policy=spec.policy,
                 prefetch=spec.prefetch, seed=spec.seed).run()
    sweep = ["repro.harness." + m for m in (
        "campaign", "runner", "supervise", "turbo", "store", "cachesim",
        "preempt")]
    generators = ["repro.workloads." + m for m in ("gap", "graphs", "serving")]
    print(",".join(m for m in sweep + generators + ["repro.checks.chaos"]
                   if m in sys.modules))
""")


def test_one_point_does_not_import_the_sweep_machinery():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               REPRO_TRACE_CACHE="off", REPRO_RESULT_STORE="off")
    proc = subprocess.run([sys.executable, "-c", ONE_POINT], cwd=REPO,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"loaded: {proc.stdout.strip()}"


GAP_TRACES = textwrap.dedent("""
    import sys
    from repro.workloads import gap_trace, gap_workload_names
    for name in gap_workload_names():
        assert len(gap_trace(name, n_records=300, seed=1)) == 300
    print(",".join(m for m in ("numpy", "scipy") if m in sys.modules))
""")


def test_gap_trace_generation_imports_neither_numpy_nor_scipy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", GAP_TRACES], cwd=REPO,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"loaded: {proc.stdout.strip()}"


def test_every_harness_export_resolves():
    script = textwrap.dedent("""
        import json
        import repro.harness as harness
        missing = [n for n in harness.__all__
                   if getattr(harness, n, None) is None]
        from repro.harness import *  # noqa: F401,F403
        unbound = sorted(set(harness.__all__) - set(globals()))
        print(json.dumps([len(harness.__all__), missing, unbound]))
    """)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [34, [], []]
