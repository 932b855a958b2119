"""Run/sweep report generator over the persistent result store.

``python -m repro report`` walks every entry in the store's current
code-fingerprint namespace, groups the points the way the paper's
figures do — one *section* per (suite, core count, prefetch, preset),
one *row* per (workload/mix, records, seed) — and renders the headline
tables: per-workload speedup over the baseline policy (sum-IPC ratio,
LRU by default), MPKI with deltas vs. the baseline, and the PMC
breakdown (pMR, mean PMC, 8-bin histogram shares).  Output is markdown
(for humans and ``$GITHUB_STEP_SUMMARY``) or JSON (for tooling); both
come from the same :func:`build_report` dict.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.metrics import (geometric_mean, normalized_ipc,
                                normalized_weighted_ipc, total_ipc)
from ..harness.spec import ExperimentSpec
from ..harness.store import ResultStore
from ..sim.stats import SimResult
from .schema import OBS_SCHEMA_VERSION

DEFAULT_BASELINE = "lru"

#: the SimResult statistic behind each per-point campaign metric
_RESULT_METRICS = {"pmr": "pmr", "mean_pmc": "mean_pmc", "aocpa": "aocpa",
                   "hit_miss_overlap": "hit_miss_overlap_fraction"}


def _pmc_hist_share(result: SimResult) -> List[float]:
    """Each PMC histogram bin's share of the measured LLC misses."""
    hist = result.conc_total.pmc_histogram
    mass = sum(hist)
    return [v / mass if mass else 0.0 for v in hist]


def metric_value(metric: str, result: SimResult,
                 base: Optional[SimResult] = None,
                 alone_ipc: Sequence[float] = ()) -> Any:
    """One point's value of a campaign grid metric
    (:data:`repro.harness.campaign.METRICS`): ``speedup`` and
    ``weighted_ipc`` are relative to the baseline policy's ``base``
    point (weighted IPC also to the slots' IPC-alone values), the rest
    are statistics of the point itself."""
    if metric == "speedup":
        return normalized_ipc(result, base)
    if metric == "weighted_ipc":
        return normalized_weighted_ipc(result, base, alone_ipc)
    if metric == "pmc_hist":
        return _pmc_hist_share(result)
    return getattr(result, _RESULT_METRICS[metric])


def aggregate(metric: str, values: Sequence[Any]) -> Any:
    """A grid's per-point values of ``metric`` folded the paper's way:
    geometric mean of ratios, arithmetic mean (bin by bin for the PMC
    histogram) of everything else."""
    if metric in ("speedup", "weighted_ipc"):
        return geometric_mean(values)
    if metric == "pmc_hist":
        return [sum(col) / len(values) for col in zip(*values)]
    return sum(values) / len(values)


def _policy_cell(result: SimResult,
                 base: Optional[SimResult]) -> Dict[str, Any]:
    cell = {
        "sum_ipc": total_ipc(result),
        "mpki": result.mpki(),
        "pmr": result.pmr,
        "mean_pmc": result.mean_pmc,
        "pmc_hist_share": [round(v, 4) for v in _pmc_hist_share(result)],
        "speedup": None,
        "mpki_delta": None,
    }
    if base is not None and total_ipc(base) > 0:
        cell["speedup"] = normalized_ipc(result, base)
        cell["mpki_delta"] = cell["mpki"] - base.mpki()
    return cell


def build_report(entries: Sequence[Tuple[ExperimentSpec, SimResult]],
                 baseline: str = DEFAULT_BASELINE) -> Dict[str, Any]:
    """Aggregate store entries into the report dict (see module doc)."""
    sections: Dict[Tuple, Dict[str, Any]] = {}
    for spec, result in entries:
        skey = (spec.suite, spec.n_cores, spec.prefetch, spec.preset)
        section = sections.setdefault(skey, {
            "suite": spec.suite, "n_cores": spec.n_cores,
            "prefetch": spec.prefetch, "preset": spec.preset,
            "rows": {}, "policies": []})
        if spec.policy not in section["policies"]:
            section["policies"].append(spec.policy)
        workload = (f"mix{spec.mix_id}" if spec.suite == "mix"
                    else spec.workload)
        rkey = (workload, spec.n_records, spec.seed)
        row = section["rows"].setdefault(rkey, {
            "workload": workload, "n_records": spec.n_records,
            "seed": spec.seed, "results": {}})
        row["results"][spec.policy] = result

    out_sections: List[Dict[str, Any]] = []
    for skey in sorted(sections):
        section = sections[skey]
        policies = sorted(
            section["policies"],
            key=lambda p: (p != baseline, p))  # baseline first, then name
        rows = [section["rows"][rk] for rk in sorted(section["rows"])]
        for row in rows:
            results = row.pop("results")
            base = results.get(baseline)
            row["per_policy"] = {policy: _policy_cell(result, base)
                                 for policy, result in results.items()}
        geomean = {}
        for policy in policies:
            speedups = [row["per_policy"][policy]["speedup"]
                        for row in rows
                        if policy in row["per_policy"]
                        and row["per_policy"][policy]["speedup"] is not None]
            geomean[policy] = geometric_mean(speedups) if speedups else None
        out_sections.append({
            "suite": section["suite"], "n_cores": section["n_cores"],
            "prefetch": section["prefetch"], "preset": section["preset"],
            "policies": policies, "workloads": rows,
            "geomean_speedup": geomean,
        })
    return {
        "schema": OBS_SCHEMA_VERSION,
        "baseline": baseline,
        "n_results": len(entries),
        "sections": out_sections,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: Optional[float], spec: str = ".3f") -> str:
    return format(value, spec) if value is not None else "-"


def render_markdown(report: Dict[str, Any]) -> str:
    lines: List[str] = ["# repro-care run report", ""]
    lines.append(f"{report['n_results']} stored result(s), "
                 f"baseline policy `{report['baseline']}`.")
    if not report["sections"]:
        lines.append("")
        lines.append("_The result store is empty for the current code "
                     "fingerprint — run a sweep first._")
        return "\n".join(lines) + "\n"
    for section in report["sections"]:
        pf = "on" if section["prefetch"] else "off"
        lines.append("")
        lines.append(f"## {section['suite']} suite · "
                     f"{section['n_cores']} core(s) · prefetch {pf} · "
                     f"preset `{section['preset']}`")
        policies = section["policies"]

        lines.append("")
        lines.append(f"### Speedup over {report['baseline']} "
                     "(sum-IPC ratio)")
        lines.append("| workload | " + " | ".join(policies) + " |")
        lines.append("|---" * (len(policies) + 1) + "|")
        for row in section["workloads"]:
            cells = [_fmt(row["per_policy"].get(p, {}).get("speedup"))
                     for p in policies]
            lines.append(f"| {row['workload']} | " + " | ".join(cells) + " |")
        geo = [_fmt(section["geomean_speedup"].get(p)) for p in policies]
        lines.append("| **geomean** | " + " | ".join(geo) + " |")

        lines.append("")
        lines.append(f"### MPKI (delta vs. {report['baseline']})")
        lines.append("| workload | " + " | ".join(policies) + " |")
        lines.append("|---" * (len(policies) + 1) + "|")
        for row in section["workloads"]:
            cells = []
            for p in policies:
                cell = row["per_policy"].get(p)
                if cell is None:
                    cells.append("-")
                elif p == report["baseline"] or cell["mpki_delta"] is None:
                    cells.append(f"{cell['mpki']:.2f}")
                else:
                    cells.append(
                        f"{cell['mpki']:.2f} ({cell['mpki_delta']:+.2f})")
            lines.append(f"| {row['workload']} | " + " | ".join(cells) + " |")

        lines.append("")
        lines.append("### PMC breakdown")
        lines.append("| workload | policy | pMR | mean PMC | "
                     "bin shares (8 x 50-cycle) |")
        lines.append("|---|---|---|---|---|")
        for row in section["workloads"]:
            for p in policies:
                cell = row["per_policy"].get(p)
                if cell is None:
                    continue
                shares = "/".join(
                    f"{100 * s:.0f}" for s in cell["pmc_hist_share"])
                lines.append(
                    f"| {row['workload']} | {p} | {cell['pmr']:.3f} | "
                    f"{cell['mean_pmc']:.1f} | {shares} |")
    return "\n".join(lines) + "\n"


def generate(store: ResultStore, fmt: str = "md",
             baseline: str = DEFAULT_BASELINE,
             policies: Optional[Sequence[str]] = None) -> str:
    """Load the store, build the report, and render it as ``md``/``json``."""
    entries = list(store.load_entries())
    if policies:
        wanted = set(policies)
        entries = [(s, r) for s, r in entries if s.policy in wanted]
    report = build_report(entries, baseline=baseline)
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "md":
        return render_markdown(report)
    raise ValueError(f"unknown report format {fmt!r} (use 'md' or 'json')")
