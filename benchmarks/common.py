"""Shared helpers for the per-table benchmark modules.

Each benchmark regenerates one paper table that is not a figure grid as
text: it prints the rows (visible with ``pytest -s`` / in benchmark
output) and also writes them to ``benchmarks/results/<name>.txt`` so a
full run leaves a reviewable artifact trail.  The figure grids and their
claims live in ``benchmarks/campaigns/care-paper.json`` and are checked
by ``python -m repro campaign report``.

Every simulation point routes through :mod:`repro.harness.runner`, so a
rerun in a fresh process serves previously-simulated points from the
persistent result store (``$REPRO_RESULT_STORE``); conftest prints the
cache-hit accounting at the end of the session.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a figure's text and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The simulations are far too expensive for pytest-benchmark's default
    auto-calibration; one timed round is the measurement.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
