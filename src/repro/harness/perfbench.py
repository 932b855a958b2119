"""Simulation-kernel throughput microbenchmarks.

Every paper figure is a sweep of full-hierarchy simulations, so the
per-event cost of ``Engine``/``Cache``/``MemRequest`` is the ceiling on
reproduction fidelity (DESIGN.md's "Python speed gate").  This module
measures that ceiling directly: fixed-seed simulation points at 1, 4 and
8 cores, timed end to end, reported as **records/sec** (trace records
retired per wall-clock second) and **events/sec** (engine events
processed per wall-clock second).

``python -m repro perf`` runs the suite and writes ``BENCH_perf.json``,
so every PR can record a perf trajectory; ``--smoke`` shrinks the traces
for CI.  Trace generation and machine construction are excluded from the
timed region — the numbers isolate the simulation kernel itself.

The cases reuse :class:`~repro.harness.spec.ExperimentSpec` as the point
description, but bypass the runner/result-store on purpose: a perf
benchmark must simulate, never serve a cached result.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..sim.system import System
from .spec import ExperimentSpec

#: v2: payloads recorded the engine backend.  With one engine left the
#: ``engine`` keys are gone; each case's ``spec`` still carries it.
SCHEMA_VERSION = 2

#: Default output file, written into the current directory.
DEFAULT_OUTPUT = "BENCH_perf.json"

#: Fixed-seed measurement points.  ``4core`` is the headline number (the
#: multi-copy smoke config every paper figure is built from); 1 and 8
#: cores bracket the scaling range of Figs. 11-14.
PERF_CASES: Dict[str, ExperimentSpec] = {
    "1core": ExperimentSpec.multicopy(
        "429.mcf", "care", n_cores=1, prefetch=False, n_records=4000, seed=3),
    "4core": ExperimentSpec.multicopy(
        "429.mcf", "care", n_cores=4, prefetch=True, n_records=2500, seed=3),
    "8core": ExperimentSpec.multicopy(
        "429.mcf", "care", n_cores=8, prefetch=True, n_records=1200, seed=3),
}

#: Measured records per core in ``--smoke`` mode (CI-sized).
SMOKE_RECORDS = 400


def _build_system(spec: ExperimentSpec, traces: List[Sequence]):
    """The machine :meth:`ExperimentSpec.execute` would build."""
    n = min(len(t) for t in traces)
    return System(spec.build_config(), traces, llc_policy=spec.policy,
                  prefetch=spec.prefetch, seed=spec.seed,
                  measure_records=n // 2, warmup_records=n // 2,
                  collect_deltas=spec.collect_deltas)


def run_case(spec: ExperimentSpec, repeat: int = 3) -> Dict:
    """Time one simulation point ``repeat`` times; best-of wall clock.

    Traces are generated once, outside the timed region; each repetition
    builds a fresh :class:`System` (also untimed) and times ``run()``.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    traces = spec.build_traces()
    walls: List[float] = []
    records = events = 0
    for _ in range(repeat):
        system = _build_system(spec, traces)
        start = time.perf_counter()
        result = system.run()
        walls.append(time.perf_counter() - start)
        # Deterministic per spec: identical on every repetition.
        records = sum(core.retired_records for core in system.cores)
        events = result.events
    best = min(walls)
    return {
        "spec": spec.to_dict(),
        "repeat": repeat,
        "wall_s": [round(w, 6) for w in walls],
        "best_wall_s": round(best, 6),
        "records": records,
        "events": events,
        "records_per_s": round(records / best, 1),
        "events_per_s": round(events / best, 1),
    }


def run_suite(cases: Optional[Sequence[str]] = None, repeat: int = 3,
              smoke: bool = False,
              progress: bool = False) -> Dict:
    """Run the named cases (default: all) and assemble the JSON payload."""
    names = list(cases) if cases else sorted(PERF_CASES)
    unknown = [n for n in names if n not in PERF_CASES]
    if unknown:
        raise KeyError(f"unknown perf cases {unknown}; "
                       f"available: {sorted(PERF_CASES)}")
    results: Dict[str, Dict] = {}
    for name in names:
        spec = PERF_CASES[name]
        if smoke:
            spec = replace(spec, n_records=SMOKE_RECORDS)
        if progress:
            print(f"[perf] {name}: {spec.label()} x{repeat}...",
                  file=sys.stderr)
        results[name] = run_case(spec, repeat=repeat)
        if progress:
            r = results[name]
            print(f"[perf] {name}: {r['records_per_s']:,.0f} records/s, "
                  f"{r['events_per_s']:,.0f} events/s "
                  f"(best of {repeat}: {r['best_wall_s']:.3f}s)",
                  file=sys.stderr)
    from .store import code_fingerprint
    return {
        "schema": SCHEMA_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "fingerprint": code_fingerprint()[:16],
        "smoke": smoke,
        "cases": results,
    }


# ----------------------------------------------------------------------
# Sweep macro-benchmark (``python -m repro perf --sweep``)
# ----------------------------------------------------------------------
#: Pinned grid for the sweep-throughput benchmark: 3 workloads x 3
#: policies at 1 core on the tiny preset.  Points are deliberately
#: *small* — sweep throughput is about per-point overhead (process
#: spawn, imports, trace generation), which is exactly what the warm
#: pool and trace cache amortize and what a paper-scale campaign of
#: thousands of points is dominated by at the margin.
SWEEP_GRID_WORKLOADS = ("429.mcf", "462.libquantum", "470.lbm")
SWEEP_GRID_POLICIES = ("lru", "srrip", "care")
SWEEP_GRID_RECORDS = 150
SWEEP_SMOKE_RECORDS = 80


def sweep_grid(records: int = SWEEP_GRID_RECORDS) -> List[ExperimentSpec]:
    """The pinned sweep-benchmark grid (9 points)."""
    return [ExperimentSpec.multicopy(w, p, n_cores=1, prefetch=False,
                                     n_records=records, seed=3,
                                     preset="tiny")
            for w in SWEEP_GRID_WORKLOADS for p in SWEEP_GRID_POLICIES]


def _run_sweep_phase(specs: Sequence[ExperimentSpec], workers: int) -> Dict:
    """One full pass over the grid, store-less and memo-cleared, so every
    point actually simulates; wall clock covers the whole ``run_many``."""
    from .runner import SweepStats, clear_memo, run_many
    clear_memo()
    stats = SweepStats()
    start = time.perf_counter()
    run_many(specs, workers=workers, store=None, stats_out=stats)
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 6),
        "points": len(specs),
        "points_per_s": round(len(specs) / wall, 2),
        "simulated": stats.simulated,
        "pool_mode": stats.pool_mode,
        "fell_back_serial": stats.fell_back_serial,
    }


def run_sweep_benchmark(repeat: int = 3, records: int = SWEEP_GRID_RECORDS,
                        workers: int = 2, progress: bool = False) -> Dict:
    """Interleaved sweep-throughput comparison; returns the payload section.

    Each round runs the pinned grid twice on the same machine state:
    first **baseline** (``REPRO_POOL=spawn`` + trace cache disabled — the
    PR 5 path), then **turbo** (persistent warm pool + trace cache in a
    throwaway directory).  Turbo round 0 is the *cold* number (pool fork
    + cache misses included); later rounds are *warm*.  The headline
    speedup compares best warm turbo against best baseline, so both
    sides get their best-of treatment.
    """
    import os
    import tempfile

    from ..workloads.tracecache import ENV_VAR as TRACE_CACHE_ENV
    from ..workloads.tracecache import reset_default_trace_cache
    from .turbo import POOL_ENV, shutdown_shared_pool

    if repeat < 2:
        raise ValueError("repeat must be >= 2 (round 0 is the cold round)")
    specs = sweep_grid(records)
    saved = {k: os.environ.get(k) for k in (POOL_ENV, TRACE_CACHE_ENV)}
    baseline: List[Dict] = []
    cold: Dict = {}
    warm: List[Dict] = []
    reset_default_trace_cache()
    with tempfile.TemporaryDirectory(prefix="repro-sweepbench-") as tmp:
        try:
            for i in range(repeat):
                os.environ[POOL_ENV] = "spawn"
                os.environ[TRACE_CACHE_ENV] = "off"
                phase = _run_sweep_phase(specs, workers)
                baseline.append(phase)
                if progress:
                    print(f"[perf] sweep round {i}: baseline "
                          f"{phase['points_per_s']:.2f} points/s",
                          file=sys.stderr)
                os.environ[POOL_ENV] = "persistent"
                os.environ[TRACE_CACHE_ENV] = tmp
                phase = _run_sweep_phase(specs, workers)
                if i == 0:
                    cold = phase
                else:
                    warm.append(phase)
                if progress:
                    label = "cold" if i == 0 else "warm"
                    print(f"[perf] sweep round {i}: turbo ({label}) "
                          f"{phase['points_per_s']:.2f} points/s",
                          file=sys.stderr)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            reset_default_trace_cache()
            shutdown_shared_pool()
    base_best = max(p["points_per_s"] for p in baseline)
    warm_best = max(p["points_per_s"] for p in warm)
    return {
        "grid": {
            "workloads": list(SWEEP_GRID_WORKLOADS),
            "policies": list(SWEEP_GRID_POLICIES),
            "n_cores": 1, "n_records": records, "preset": "tiny",
            "points": len(specs),
        },
        "workers": workers,
        "repeat": repeat,
        "baseline": {"mode": "spawn pool, trace cache off",
                     "passes": baseline, "best_points_per_s": base_best},
        "turbo_cold": cold,
        "turbo_warm": {"mode": "persistent pool, trace cache on",
                       "passes": warm, "best_points_per_s": warm_best},
        "speedup_cold_vs_baseline":
            round(cold["points_per_s"] / base_best, 2),
        "speedup_warm_vs_baseline": round(warm_best / base_best, 2),
    }


def format_sweep_payload(section: Dict) -> str:
    """Human-readable summary of one sweep-benchmark section."""
    grid = section["grid"]
    lines = [
        f"sweep throughput ({grid['points']} points: "
        f"{len(grid['workloads'])} workloads x {len(grid['policies'])} "
        f"policies, {grid['n_records']} records, preset {grid['preset']}, "
        f"workers={section['workers']})",
        f"  baseline (spawn pool, cache off): "
        f"{section['baseline']['best_points_per_s']:.2f} points/s",
        f"  turbo cold (warm pool, cold cache): "
        f"{section['turbo_cold']['points_per_s']:.2f} points/s "
        f"({section['speedup_cold_vs_baseline']:.2f}x)",
        f"  turbo warm: "
        f"{section['turbo_warm']['best_points_per_s']:.2f} points/s "
        f"({section['speedup_warm_vs_baseline']:.2f}x)",
    ]
    return "\n".join(lines)


def merge_sweep_section(existing: Optional[Dict], section: Dict) -> Dict:
    """Fold a sweep section into an existing suite payload (or mint a
    minimal one), preserving the per-case microbenchmark numbers."""
    from .store import code_fingerprint
    payload = dict(existing) if existing else {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "fingerprint": code_fingerprint()[:16],
        "cases": {},
    }
    payload["sweep"] = section
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return payload


def write_payload(payload: Dict, path: Union[str, Path] = DEFAULT_OUTPUT) -> Path:
    """Persist a suite payload (pretty, sorted keys) and return the path."""
    out = Path(path)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return out


def diff_payloads(base: Dict, fresh: Dict) -> str:
    """Markdown trend table comparing two suite payloads (CI step summary).

    Informational only — wall-clock noise on shared runners makes this a
    trend signal, not a gate.  Cases present in only one payload show
    ``n/a``; a smoke/full or fingerprint mismatch is called out under the
    table because records/s values are then not directly comparable.
    """
    lines = [
        "| case | base rec/s | fresh rec/s | Δ rec/s | base ev/s "
        "| fresh ev/s | ev/s × |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    names = sorted(set(base.get("cases", {})) | set(fresh.get("cases", {})))
    for name in names:
        b = base.get("cases", {}).get(name)
        f = fresh.get("cases", {}).get(name)
        if b is None or f is None:
            cells = ["n/a" if b is None else f"{b['records_per_s']:,.0f}",
                     "n/a" if f is None else f"{f['records_per_s']:,.0f}",
                     "n/a",
                     "n/a" if b is None else f"{b['events_per_s']:,.0f}",
                     "n/a" if f is None else f"{f['events_per_s']:,.0f}",
                     "n/a"]
        else:
            b_rec, f_rec = b["records_per_s"], f["records_per_s"]
            delta = (f_rec - b_rec) / b_rec * 100 if b_rec else 0.0
            b_ev, f_ev = b["events_per_s"], f["events_per_s"]
            ratio = f_ev / b_ev if b_ev else 0.0
            cells = [f"{b_rec:,.0f}", f"{f_rec:,.0f}", f"{delta:+.1f}%",
                     f"{b_ev:,.0f}", f"{f_ev:,.0f}", f"{ratio:.2f}x"]
        lines.append("| " + " | ".join([name] + cells) + " |")
    notes = []
    if base.get("smoke") != fresh.get("smoke"):
        notes.append("payloads mix smoke and full-size traces — absolute "
                     "numbers are not comparable")
    if base.get("fingerprint") != fresh.get("fingerprint"):
        notes.append(f"code fingerprint changed "
                     f"({base.get('fingerprint')} → "
                     f"{fresh.get('fingerprint')})")
    if base.get("python") != fresh.get("python"):
        notes.append(f"python changed ({base.get('python')} → "
                     f"{fresh.get('python')})")
    text = "\n".join(lines)
    if notes:
        text += "\n\n" + "\n".join(f"> note: {n}" for n in notes)
    return text


# ----------------------------------------------------------------------
# Sweep-throughput regression gate (CI)
# ----------------------------------------------------------------------
#: set to ``off``/``0`` to skip the gate (documented CI override; the
#: ``perf-regression-ok`` PR label drives the same skip in ci.yml)
GATE_ENV = "REPRO_PERF_GATE"
GATE_THRESHOLD_ENV = "REPRO_PERF_GATE_THRESHOLD"
#: maximum tolerated drop in warm sweep throughput vs. the baseline
DEFAULT_GATE_THRESHOLD = 0.25


def _comparable_sweep_section(base: Dict, fresh_section: Dict) -> Optional[Dict]:
    """The baseline sweep section whose grid matches the fresh one.

    ``BENCH_perf.json`` carries the full-size grid under ``sweep`` and
    the CI-sized grid under ``sweep_smoke``; points/s values are only
    comparable when the grid (records and point count) is the same.
    """
    grid = fresh_section.get("grid", {})
    for key in ("sweep", "sweep_smoke"):
        section = base.get(key)
        if not section:
            continue
        bgrid = section.get("grid", {})
        if (bgrid.get("n_records") == grid.get("n_records")
                and bgrid.get("points") == grid.get("points")):
            return section
    return None


def gate_sweep_regression(base: Dict, fresh: Dict,
                          threshold: float = DEFAULT_GATE_THRESHOLD):
    """Compare warm sweep throughput against the committed baseline.

    Returns ``(status, message)`` with status ``"ok"``, ``"fail"`` (drop
    beyond ``threshold``), or ``"skip"`` (no comparable baseline grid —
    absolute points/s are meaningless across different grids).  Unlike
    the per-case kernel diff (wall-clock noise on individual cases), the
    sweep number aggregates a whole grid twice over, which is stable
    enough to gate with a generous threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    fresh_section = fresh.get("sweep")
    if not fresh_section:
        return "skip", "fresh payload has no 'sweep' section"
    section = _comparable_sweep_section(base, fresh_section)
    if section is None:
        return "skip", ("no comparable sweep baseline in BENCH_perf.json "
                        "(grid records/points mismatch)")
    base_pts = section["turbo_warm"]["best_points_per_s"]
    fresh_pts = fresh_section["turbo_warm"]["best_points_per_s"]
    if base_pts <= 0:
        return "skip", "baseline sweep throughput is zero"
    delta = (fresh_pts - base_pts) / base_pts
    msg = (f"warm sweep throughput {fresh_pts:.2f} points/s vs baseline "
           f"{base_pts:.2f} ({delta * 100:+.1f}%)")
    if delta < -threshold:
        return "fail", (f"{msg} — beyond the {threshold:.0%} regression "
                        f"gate (override: {GATE_ENV}=off or the "
                        "'perf-regression-ok' PR label)")
    return "ok", msg


def merge_smoke_sweep_section(existing: Optional[Dict],
                              section: Dict) -> Dict:
    """Fold a *smoke-sized* sweep section into a payload under
    ``sweep_smoke`` (the CI gate's baseline key), like
    :func:`merge_sweep_section` does for the full-size grid."""
    from .store import code_fingerprint
    payload = dict(existing) if existing else {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "fingerprint": code_fingerprint()[:16],
        "cases": {},
    }
    payload["sweep_smoke"] = section
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return payload


def format_payload(payload: Dict) -> str:
    """Human-readable table of one suite payload."""
    from ..analysis import format_table
    rows = []
    for name, case in payload["cases"].items():
        rows.append([
            name,
            f"{case['records']}",
            f"{case['events']}",
            f"{case['best_wall_s']:.3f}",
            f"{case['records_per_s']:,.0f}",
            f"{case['events_per_s']:,.0f}",
        ])
    header = ["case", "records", "events", "best wall (s)",
              "records/s", "events/s"]
    title = (f"simulation-kernel throughput (python {payload['python']}, "
             f"best of {next(iter(payload['cases'].values()))['repeat']}"
             f"{', smoke' if payload.get('smoke') else ''})")
    return title + "\n" + format_table(header, rows)
