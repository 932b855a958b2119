"""Import-path hygiene: what ships, and what a cold start loads.

* Every ``repro`` module must be a file git tracks.  An ignore rule once
  matched ``src/repro/obs/`` and kept ``incidents.py`` out of every
  commit while it still imported fine in the working tree.
* numpy and scipy load only where they are used (GAP graph generation
  and ``analysis.statistics``), so a SPEC-like simulation process never
  pays for importing them.
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
    from repro.workloads import gap_trace
    from repro.analysis.statistics import summarize
    assert len(gap_trace("bfs-or", n_records=500)) == 500
    assert summarize([1.0, 2.0, 3.0]).ci_high > 2.0
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
    # ...and both still load on demand for the code that needs them
    assert late == "numpy,scipy"


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
        "campaign", "runner", "supervise", "turbo", "store", "cachesim")]
    print(",".join(m for m in sweep + ["repro.checks.chaos"]
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
