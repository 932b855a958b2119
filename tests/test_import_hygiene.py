"""Import-path hygiene: what ships, and what a cold start loads.

* Every ``repro`` module must be a file git tracks.  An ignore rule once
  matched ``src/repro/obs/`` and kept ``incidents.py`` out of every
  commit while it still imported fine in the working tree.
* numpy and scipy load only where they are used (GAP graph generation
  and ``analysis.statistics``), so a SPEC-like simulation process never
  pays for importing them.
"""

import importlib
import os
import pkgutil
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
