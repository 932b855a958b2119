"""The perf payload readers: the sweep-throughput gate and the trend diff.

Nothing here simulates.  The base is the committed ``BENCH_perf.json``;
fresh payloads are built in the shape ``repro perf`` writes, so the gate
is checked against the exact baseline CI compares with.
"""

import json
from pathlib import Path

import pytest

from repro.harness.perfbench import (SWEEP_GRID_POLICIES, SWEEP_GRID_RECORDS,
                                     SWEEP_GRID_WORKLOADS,
                                     SWEEP_SMOKE_RECORDS, diff_payloads,
                                     gate_sweep_regression,
                                     merge_sweep_section, sweep_grid)

BENCH = Path(__file__).resolve().parents[1] / "BENCH_perf.json"


@pytest.fixture(scope="module")
def base():
    return json.loads(BENCH.read_text())


def fresh_sweep(points_per_s, n_records=SWEEP_SMOKE_RECORDS):
    """A payload shaped like ``repro perf --sweep [--smoke]`` output."""
    n_points = len(sweep_grid(n_records))
    phase = {"wall_s": n_points / points_per_s, "points": n_points,
             "points_per_s": points_per_s, "simulated": n_points,
             "pool_mode": "persistent", "fell_back_serial": False}
    section = {
        "grid": {"workloads": list(SWEEP_GRID_WORKLOADS),
                 "policies": list(SWEEP_GRID_POLICIES),
                 "n_cores": 1, "n_records": n_records, "preset": "tiny",
                 "points": n_points},
        "workers": 2,
        "repeat": 3,
        "baseline": {"mode": "spawn pool, trace cache off",
                     "passes": [phase], "best_points_per_s": points_per_s},
        "turbo_cold": phase,
        "turbo_warm": {"mode": "persistent pool, trace cache on",
                       "passes": [phase, phase],
                       "best_points_per_s": points_per_s},
        "speedup_cold_vs_baseline": 1.0,
        "speedup_warm_vs_baseline": 1.0,
    }
    return merge_sweep_section(None, section)


def warm_best(base, key):
    return base[key]["turbo_warm"]["best_points_per_s"]


# ----------------------------------------------------------------------
# gate_sweep_regression
# ----------------------------------------------------------------------
def test_gate_passes_a_smoke_sweep_at_the_committed_baseline(base):
    status, message = gate_sweep_regression(
        base, fresh_sweep(warm_best(base, "sweep_smoke")))
    assert status == "ok", message


def test_gate_fails_a_smoke_sweep_30_percent_below_baseline(base):
    status, message = gate_sweep_regression(
        base, fresh_sweep(0.7 * warm_best(base, "sweep_smoke")))
    assert status == "fail", message
    assert "-30.0%" in message


def test_gate_matches_the_full_size_grid_too(base):
    fresh = fresh_sweep(warm_best(base, "sweep"), SWEEP_GRID_RECORDS)
    assert gate_sweep_regression(base, fresh)[0] == "ok"


def test_gate_skips_only_a_grid_with_no_baseline(base):
    status, message = gate_sweep_regression(
        base, fresh_sweep(100.0, n_records=SWEEP_SMOKE_RECORDS + 1))
    assert status == "skip"
    assert "no comparable sweep baseline" in message


# ----------------------------------------------------------------------
# diff_payloads
# ----------------------------------------------------------------------
def test_diff_renders_one_row_per_case(base):
    fresh = {"smoke": True, "fingerprint": "f" * 16,
             "python": base["python"],
             "cases": {name: dict(case, records_per_s=1.0,
                                  events_per_s=2.0)
                       for name, case in base["cases"].items()
                       if name != "8core"}}
    fresh["cases"]["16core"] = dict(fresh["cases"]["1core"])
    table = diff_payloads(base, fresh)
    rows = [line for line in table.splitlines()
            if line.startswith("| ") and not line.startswith("| case")]
    names = [row.split(" | ")[0][2:] for row in rows]
    assert names == sorted(set(base["cases"]) | {"16core"})
    assert "| ev/s × |" in table.splitlines()[0]
    by_name = dict(zip(names, rows))
    assert "n/a" in by_name["8core"] and "n/a" in by_name["16core"]
    assert "n/a" not in by_name["1core"]
    assert "smoke and full-size" in table
