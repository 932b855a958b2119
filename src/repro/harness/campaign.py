"""Declarative evaluation campaigns: the paper's figures as data.

A *campaign* is a versioned spec file (JSON, or TOML on Python >= 3.11)
under ``benchmarks/campaigns/``.  Each of its grids is one figure or
table: the mix x cores x policy points behind it, the metric on its
y-axis, the paper's reference values and the paper's claims about it.
``python -m repro campaign`` expands a campaign into
:class:`~repro.harness.spec.ExperimentSpec` points, executes them as one
standing resumable mega-sweep on the existing manifest + result-store +
warm-pool machinery, and reports each grid's metric, a paper row and one
``holds``/``fails``/``missing`` verdict per claim.

Spec format (all keys lowercase; ``defaults`` apply to every grid)::

    {
      "schema": "repro.campaign/v1",
      "name": "care-paper",
      "description": "...",
      "defaults": {"records": 6000, "seed": 3, "preset": "default"},
      "grids": [
        {"id": "fig07", "figure": "Fig. 7", "title": "...",
         "suite": "spec", "workloads": "@spec",
         "policies": ["lru", "care"], "cores": [4], "prefetch": [true],
         "paper": {"care": 1.103},
         "claims": [{"text": "CARE beats LRU",
                     "left": "care", "op": ">", "right": 1}]},
        {"id": "fig10", "figure": "Fig. 10", "suite": "mix",
         "mixes": 100, "metric": "weighted_ipc",
         "policies": ["lru", "care"], "cores": [4]},
        {"id": "fig11", "suite": "spec", "workloads": "@spec-fig5",
         "policies": ["lru", "care"], "cores": [4, 16],
         "records": {"4": 12000, "16": 6000}}
      ],
      "slices": {
        "ci-smoke": {"grids": ["fig07"], "max_workloads": 2,
                     "records": 300, "policies": ["lru", "care"]}
      }
    }

Workload selectors: ``@spec`` (all 30 Table VIII benchmarks),
``@spec-fig5`` (the 16 Figure 5 workloads), ``@gap`` (Table IX),
``@serve`` (production-traffic families), ``@serve-<family>`` (one
family), or an explicit name list.  ``records`` is records per core,
either one number or a map from core count to records.

``metric`` is the grid's y-axis, per point and aggregated over the
grid's workloads (see :func:`repro.obs.report.metric_value`):

* ``speedup`` (the default) — sum-IPC over the baseline policy's point,
  geometric mean;
* ``weighted_ipc`` — mix grids only: weighted speedup normalized to the
  baseline, geometric mean.  The grid also expands the IPC-alone point
  of every mix slot: 1-core LRU with the grid's prefetch, records, seed
  and preset;
* ``pmr``, ``mean_pmc``, ``aocpa``, ``hit_miss_overlap`` — that
  :class:`~repro.sim.stats.SimResult` statistic, arithmetic mean;
* ``pmc_hist`` — the 8-bin PMC histogram shares, averaged bin by bin.

A claim is ``{"text", "left", "op", "right", "tol"?}`` with ``op`` one
of ``>``, ``>=``, ``<=``; ``tol`` loosens it additively
(``left >= right - tol``, ``left <= right + tol``).  An operand is a
number, a policy, ``policy@cores`` (a bare policy needs a grid with one
core count), or ``best``: the highest other policy of a ``speedup`` or
``weighted_ipc`` grid at the other operand's core count.  A
policy operand is the metric's aggregate over the grid's points of that
policy and core count.  A claim reads ``missing`` unless every point
behind both operands is in the store.  ``paper`` maps the same policy
operands to the paper's values.

A *slice* is a named shrink of the same campaign: it restricts which
grids run and caps/overrides their axes (``max_workloads``/``max_mixes``
take evenly strided samples so a slice keeps the full diversity spread;
an integer ``records`` replaces a grid's records map), which is how the
gating CI smoke slice and the nightly slice stay honest subsets of the
committed paper-scale grid.  A claim naming a policy or core count the
slice removed reads ``missing``.

Expansion is deterministic, so the same spec + slice always produces
the same point set in the same order; the sweep manifest keys points by
spec content hash, which is what makes interrupted campaigns resumable
(``--resume``) across processes and nights.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from .spec import CONFIG_PRESETS, ExperimentSpec

#: accepted campaign schema tag (bump on incompatible format changes)
CAMPAIGN_SCHEMA = "repro.campaign/v1"

#: where named campaigns live, relative to the repo root / cwd
CAMPAIGNS_DIR = Path("benchmarks") / "campaigns"

#: the campaign used when the CLI gets no spec argument
DEFAULT_CAMPAIGN = "care-paper"

#: grid metrics, as :func:`repro.obs.report.metric_value` computes them
METRICS = ("speedup", "weighted_ipc", "pmr", "mean_pmc", "aocpa",
           "hit_miss_overlap", "pmc_hist")

#: the ratio metrics: geometric-mean aggregates, and the only metrics
#: whose ``best`` (the highest) is defined
_RATIOS = ("speedup", "weighted_ipc")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<=": operator.le}

_GRID_KEYS = {"id", "title", "figure", "suite", "workloads", "policies",
              "cores", "prefetch", "records", "seed", "preset", "mixes",
              "metric", "paper", "claims"}
_CLAIM_KEYS = {"text", "left", "op", "right", "tol"}
_SLICE_KEYS = {"grids", "max_workloads", "max_mixes", "records", "cores",
               "policies", "prefetch", "workers"}

Operand = Union[float, str]


class CampaignError(ValueError):
    """A campaign file failed validation (CLI maps this to exit 2)."""


def _strided_sample(seq: Sequence, count: int) -> List:
    """Evenly strided subset preserving order (diversity over prefix)."""
    if count >= len(seq):
        return list(seq)
    if count < 1:
        return []
    step = len(seq) / count
    picked = []
    for i in range(count):
        item = seq[int(i * step)]
        if item not in picked:
            picked.append(item)
    return picked


def resolve_workloads(selector: Union[str, Sequence[str]]) -> List[str]:
    """Expand a workload selector (``@spec``/``@gap``/... or a list)."""
    from ..workloads import (FIG5_WORKLOADS, SERVE_FAMILIES, SERVE_WORKLOADS,
                             gap_workload_names, serve_names, spec_names)
    if isinstance(selector, str):
        if selector == "@spec":
            return spec_names()
        if selector == "@spec-fig5":
            return list(FIG5_WORKLOADS)
        if selector == "@gap":
            return gap_workload_names()
        if selector == "@serve":
            return serve_names()
        if selector.startswith("@serve-"):
            family = selector[len("@serve-"):]
            if family not in SERVE_FAMILIES:
                raise CampaignError(
                    f"unknown serving family {family!r} in {selector!r}; "
                    f"families: {list(SERVE_FAMILIES)}")
            return [n for n, w in SERVE_WORKLOADS.items()
                    if w.family == family]
        raise CampaignError(
            f"unknown workload selector {selector!r} (want @spec, "
            "@spec-fig5, @gap, @serve, @serve-<family>, or a name list)")
    names = list(selector)
    if not names:
        raise CampaignError("workload list must not be empty")
    return names


@dataclass(frozen=True)
class Claim:
    """One claim of the paper about a grid, as data (see module doc)."""

    text: str
    left: Operand
    op: str
    right: Operand
    tol: float = 0.0

    def holds(self, left: float, right: float) -> bool:
        slack = self.tol if self.op == "<=" else -self.tol
        return _OPS[self.op](left, right + slack)


@dataclass(frozen=True)
class CampaignGrid:
    """One figure/table grid: the cross product of its axes."""

    id: str
    suite: str                         # "spec" | "gap" | "serve" | "mix"
    policies: Tuple[str, ...]
    cores: Tuple[int, ...]
    prefetch: Tuple[bool, ...] = (True,)
    workloads: Tuple[str, ...] = ()    # empty iff suite == "mix"
    mixes: int = 0                     # mix count iff suite == "mix"
    records: Union[int, Mapping[int, int]] = 6000   # per core count
    seed: int = 3
    preset: str = "default"
    title: str = ""
    figure: str = ""
    metric: str = "speedup"
    paper: Mapping[str, float] = field(default_factory=dict)
    claims: Tuple[Claim, ...] = ()

    def records_at(self, cores: int) -> int:
        if isinstance(self.records, int):
            return self.records
        return self.records[cores]

    def units(self) -> Sequence:
        """The grid's rows: mix ids for mix grids, else workload names."""
        return range(self.mixes) if self.suite == "mix" else self.workloads

    def point(self, unit, policy: str, cores: int,
              prefetch: bool) -> ExperimentSpec:
        records = self.records_at(cores)
        if self.suite == "mix":
            return ExperimentSpec.mix(unit, policy, n_cores=cores,
                                      prefetch=prefetch, n_records=records,
                                      seed=self.seed)
        return ExperimentSpec(workload=unit, policy=policy, n_cores=cores,
                              prefetch=prefetch, suite=self.suite,
                              n_records=records, seed=self.seed,
                              preset=self.preset)

    def alone_points(self, mix_id: int, cores: int,
                     prefetch: bool) -> List[ExperimentSpec]:
        """The IPC-alone points of one mix's slots (``weighted_ipc``)."""
        from ..workloads.mixes import mixed_workload_names
        return [ExperimentSpec(name, "lru", n_cores=1, prefetch=prefetch,
                               n_records=self.records_at(cores),
                               seed=self.seed, preset=self.preset)
                for name in mixed_workload_names(cores, mix_id)]

    def points(self) -> int:
        return len(self.expand())

    def expand(self) -> List[ExperimentSpec]:
        """Every distinct ExperimentSpec in this grid, deterministic
        order; a ``weighted_ipc`` grid's IPC-alone points follow each
        (cores, prefetch) block."""
        specs: List[ExperimentSpec] = []
        for cores in self.cores:
            for prefetch in self.prefetch:
                for unit in self.units():
                    for policy in self.policies:
                        specs.append(self.point(unit, policy, cores,
                                                prefetch))
                if self.metric == "weighted_ipc":
                    for mix_id in self.units():
                        specs.extend(self.alone_points(mix_id, cores,
                                                       prefetch))
        return list(dict.fromkeys(specs))


@dataclass(frozen=True)
class Campaign:
    """A parsed campaign file (possibly already sliced)."""

    name: str
    description: str = ""
    grids: Tuple[CampaignGrid, ...] = ()
    slices: Mapping[str, Dict[str, Any]] = field(default_factory=dict)
    baseline: str = "lru"
    slice_name: Optional[str] = None
    source: Optional[str] = None       # file it was loaded from

    def tag(self) -> str:
        """Manifest/incident tag: campaign name plus the active slice."""
        return (f"campaign-{self.name}-{self.slice_name}" if self.slice_name
                else f"campaign-{self.name}")

    def default_manifest(self) -> str:
        return f"{self.tag()}.manifest.json"

    def points(self) -> int:
        """Grid points summed over grids (a point two grids share
        counts twice; ``len(specs())`` counts it once)."""
        return sum(grid.points() for grid in self.grids)

    def expand(self) -> List[Tuple[CampaignGrid, ExperimentSpec]]:
        return [(grid, spec) for grid in self.grids
                for spec in grid.expand()]

    def specs(self) -> List[ExperimentSpec]:
        """All points, deduplicated (grids may overlap), stable order."""
        return list(dict.fromkeys(spec for _, spec in self.expand()))


# ----------------------------------------------------------------------
# Parsing / validation
# ----------------------------------------------------------------------
def _as_tuple(value, kind=None) -> Tuple:
    items = tuple(value if isinstance(value, (list, tuple)) else (value,))
    if kind is not None:
        items = tuple(kind(v) for v in items)
    return items


def _parse_records(gid: str, raw, cores: Tuple[int, ...]
                   ) -> Union[int, Dict[int, int]]:
    if not isinstance(raw, dict):
        return int(raw)
    try:
        records = {int(c): int(n) for c, n in raw.items()}
    except (TypeError, ValueError):
        raise CampaignError(f"grid {gid!r}: 'records' maps core counts "
                            f"to record counts, got {raw!r}") from None
    if set(records) != set(cores):
        raise CampaignError(f"grid {gid!r}: 'records' covers cores "
                            f"{sorted(records)}, the grid runs "
                            f"{sorted(cores)}")
    return records


def _check_operand(gid: str, operand, policies: Tuple[str, ...],
                   cores: Tuple[int, ...]) -> Operand:
    """A valid claim/paper operand (numbers come back as float)."""
    if isinstance(operand, bool) or not isinstance(operand,
                                                   (int, float, str)):
        raise CampaignError(f"grid {gid!r}: bad operand {operand!r}")
    if not isinstance(operand, str):
        return float(operand)
    if operand == "best":
        return operand
    policy, at, count = operand.partition("@")
    if policy not in policies:
        raise CampaignError(f"grid {gid!r}: {operand!r} names policy "
                            f"{policy!r}, which the grid does not run")
    if not at:
        if len(cores) > 1:
            raise CampaignError(f"grid {gid!r}: {operand!r} needs a core "
                                f"count (the grid runs {list(cores)})")
    elif not count.isdigit() or int(count) not in cores:
        raise CampaignError(f"grid {gid!r}: {operand!r} names a core "
                            f"count the grid does not run ({list(cores)})")
    return operand


def _parse_claim(gid: str, raw, metric: str, policies: Tuple[str, ...],
                 cores: Tuple[int, ...]) -> Claim:
    if not isinstance(raw, dict) or set(raw) - _CLAIM_KEYS:
        raise CampaignError(f"grid {gid!r}: a claim is an object with "
                            f"keys {sorted(_CLAIM_KEYS)}, got {raw!r}")
    for key in ("text", "left", "op", "right"):
        if key not in raw:
            raise CampaignError(f"grid {gid!r}: claim missing {key!r}")
    if raw["op"] not in _OPS:
        raise CampaignError(f"grid {gid!r}: claim op {raw['op']!r} is not "
                            f"one of {list(_OPS)}")
    left = _check_operand(gid, raw["left"], policies, cores)
    right = _check_operand(gid, raw["right"], policies, cores)
    for one, other in ((left, right), (right, left)):
        if one == "best" and (metric not in _RATIOS
                              or not isinstance(other, str)
                              or other == "best"):
            raise CampaignError(
                f"grid {gid!r}: 'best' needs a policy on the other side "
                f"and a {' or '.join(_RATIOS)} grid")
    if not (isinstance(left, str) or isinstance(right, str)):
        raise CampaignError(f"grid {gid!r}: claim {raw['text']!r} names "
                            "no policy")
    tol = raw.get("tol", 0.0)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or tol < 0:
        raise CampaignError(f"grid {gid!r}: claim tol must be a number "
                            f">= 0, got {tol!r}")
    return Claim(text=str(raw["text"]), left=left, op=raw["op"],
                 right=right, tol=float(tol))


def _parse_grid(raw: Dict[str, Any], defaults: Dict[str, Any]) -> CampaignGrid:
    if not isinstance(raw, dict):
        raise CampaignError(f"grid entries must be objects, got {raw!r}")
    unknown = set(raw) - _GRID_KEYS
    if unknown:
        raise CampaignError(
            f"grid {raw.get('id', '?')!r}: unknown keys {sorted(unknown)}")
    for key in ("id", "suite", "policies", "cores"):
        if key not in raw:
            raise CampaignError(f"grid {raw.get('id', '?')!r}: "
                                f"missing required key {key!r}")
    gid = str(raw["id"])
    suite = raw["suite"]
    if suite not in ("spec", "gap", "serve", "mix"):
        raise CampaignError(f"grid {gid!r}: unknown suite {suite!r}")
    preset = raw.get("preset", defaults.get("preset", "default"))
    if preset not in CONFIG_PRESETS:
        raise CampaignError(f"grid {gid!r}: unknown preset {preset!r}")
    metric = raw.get("metric", "speedup")
    if metric not in METRICS:
        raise CampaignError(f"grid {gid!r}: unknown metric {metric!r} "
                            f"(want one of {list(METRICS)})")
    if metric == "weighted_ipc" and suite != "mix":
        raise CampaignError(f"grid {gid!r}: weighted_ipc needs a mix grid")
    workloads: Tuple[str, ...] = ()
    mixes = 0
    if suite == "mix":
        mixes = int(raw.get("mixes", defaults.get("mixes", 0)))
        if mixes < 1:
            raise CampaignError(f"grid {gid!r}: mix grids need "
                                "'mixes' >= 1")
    else:
        if "workloads" not in raw:
            raise CampaignError(f"grid {gid!r}: non-mix grids need "
                                "'workloads'")
        workloads = tuple(resolve_workloads(raw["workloads"]))
    policies = _as_tuple(raw["policies"], str)
    cores = _as_tuple(raw["cores"], int)
    paper = raw.get("paper", {})
    claims = raw.get("claims", [])
    if not isinstance(paper, dict) or not isinstance(claims, list):
        raise CampaignError(f"grid {gid!r}: 'paper' is an object and "
                            "'claims' a list")
    if metric == "pmc_hist" and (paper or claims):
        raise CampaignError(f"grid {gid!r}: pmc_hist has no scalar "
                            "aggregate for 'paper' or 'claims'")
    for key, value in paper.items():
        if _check_operand(gid, key, policies, cores) == "best" or \
                isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            raise CampaignError(f"grid {gid!r}: 'paper' maps policy "
                                f"operands to numbers, got {key!r}: "
                                f"{value!r}")
    return CampaignGrid(
        id=gid,
        suite=suite,
        policies=policies,
        cores=cores,
        prefetch=_as_tuple(raw.get("prefetch", (True,)), bool),
        workloads=workloads,
        mixes=mixes,
        records=_parse_records(
            gid, raw.get("records", defaults.get("records", 6000)), cores),
        seed=int(raw.get("seed", defaults.get("seed", 3))),
        preset=preset,
        title=str(raw.get("title", "")),
        figure=str(raw.get("figure", "")),
        metric=metric,
        paper={str(k): float(v) for k, v in paper.items()},
        claims=tuple(_parse_claim(gid, c, metric, policies, cores)
                     for c in claims),
    )


def parse_campaign(data: Dict[str, Any],
                   source: Optional[str] = None) -> Campaign:
    """Validate a raw campaign dict into a :class:`Campaign`."""
    if not isinstance(data, dict):
        raise CampaignError("campaign file must hold a JSON/TOML object")
    schema = data.get("schema")
    if schema != CAMPAIGN_SCHEMA:
        raise CampaignError(f"unsupported campaign schema {schema!r} "
                            f"(want {CAMPAIGN_SCHEMA!r})")
    name = data.get("name")
    if not name or not isinstance(name, str):
        raise CampaignError("campaign needs a non-empty 'name'")
    defaults = data.get("defaults", {})
    raw_grids = data.get("grids")
    if not raw_grids:
        raise CampaignError("campaign needs at least one grid")
    grids = tuple(_parse_grid(g, defaults) for g in raw_grids)
    ids = [g.id for g in grids]
    if len(set(ids)) != len(ids):
        raise CampaignError(f"duplicate grid ids: {ids}")
    slices = data.get("slices", {})
    for sname, sdata in slices.items():
        unknown = set(sdata) - _SLICE_KEYS
        if unknown:
            raise CampaignError(
                f"slice {sname!r}: unknown keys {sorted(unknown)}")
        for gid in sdata.get("grids", []):
            if gid not in ids:
                raise CampaignError(
                    f"slice {sname!r} references unknown grid {gid!r}")
    return Campaign(name=name, description=str(data.get("description", "")),
                    grids=grids, slices=dict(slices),
                    baseline=str(defaults.get("baseline", "lru")),
                    source=source)


def load_campaign(path: Union[str, Path]) -> Campaign:
    """Load and validate one campaign file (``.json``, or ``.toml`` when
    the interpreter ships :mod:`tomllib` — Python 3.11+)."""
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise CampaignError(f"cannot read campaign file {path}: {exc}")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:
            raise CampaignError(
                f"{path}: TOML campaigns need Python >= 3.11 (tomllib); "
                "use the JSON form on older interpreters")
        try:
            data = tomllib.loads(raw_bytes.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise CampaignError(f"{path}: invalid TOML: {exc}")
    else:
        try:
            data = json.loads(raw_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CampaignError(f"{path}: invalid JSON: {exc}")
    return parse_campaign(data, source=str(path))


def find_campaign(ref: Optional[str]) -> Path:
    """Resolve a CLI campaign reference: a path, or a name under
    ``benchmarks/campaigns/`` (``.json`` preferred, then ``.toml``)."""
    ref = ref or DEFAULT_CAMPAIGN
    as_path = Path(ref)
    if as_path.suffix in (".json", ".toml") or as_path.is_file():
        return as_path
    for suffix in (".json", ".toml"):
        candidate = CAMPAIGNS_DIR / f"{ref}{suffix}"
        if candidate.is_file():
            return candidate
    raise CampaignError(
        f"no campaign named {ref!r} under {CAMPAIGNS_DIR}/ "
        f"(and {ref!r} is not a file)")


def available_campaigns() -> List[Path]:
    """Campaign files under ``benchmarks/campaigns/``, sorted."""
    if not CAMPAIGNS_DIR.is_dir():
        return []
    return sorted(p for p in CAMPAIGNS_DIR.iterdir()
                  if p.suffix in (".json", ".toml"))


# ----------------------------------------------------------------------
# Slicing
# ----------------------------------------------------------------------
def apply_slice(campaign: Campaign, slice_name: str) -> Campaign:
    """The campaign restricted to a named slice (see module doc)."""
    if slice_name not in campaign.slices:
        raise CampaignError(
            f"campaign {campaign.name!r} has no slice {slice_name!r}; "
            f"available: {sorted(campaign.slices)}")
    sdata = campaign.slices[slice_name]
    keep = sdata.get("grids")
    grids: List[CampaignGrid] = []
    for grid in campaign.grids:
        if keep is not None and grid.id not in keep:
            continue
        changes: Dict[str, Any] = {}
        if "records" in sdata:
            changes["records"] = int(sdata["records"])
        if "policies" in sdata:
            policies = tuple(p for p in grid.policies
                             if p in set(sdata["policies"]))
            changes["policies"] = policies or _as_tuple(
                sdata["policies"], str)
        if "cores" in sdata:
            cores = tuple(c for c in grid.cores
                          if c in set(sdata["cores"]))
            changes["cores"] = cores or _as_tuple(sdata["cores"], int)
        if "prefetch" in sdata:
            changes["prefetch"] = _as_tuple(sdata["prefetch"], bool)
        if "max_workloads" in sdata and grid.suite != "mix":
            changes["workloads"] = tuple(_strided_sample(
                grid.workloads, int(sdata["max_workloads"])))
        if "max_mixes" in sdata and grid.suite == "mix":
            changes["mixes"] = min(grid.mixes, int(sdata["max_mixes"]))
        sliced = replace(grid, **changes)
        if not isinstance(sliced.records, int) and \
                set(sliced.cores) - set(sliced.records):
            raise CampaignError(
                f"slice {slice_name!r}: grid {grid.id!r} has no records "
                f"for some of cores {list(sliced.cores)}; give the slice "
                "an integer 'records'")
        grids.append(sliced)
    if not grids:
        raise CampaignError(f"slice {slice_name!r} selects no grids")
    return replace(campaign, grids=tuple(grids), slice_name=slice_name)


# ----------------------------------------------------------------------
# Status / reporting
# ----------------------------------------------------------------------
def campaign_status(campaign: Campaign, store,
                    manifest_counts: Optional[Dict[str, int]] = None
                    ) -> Dict[str, Any]:
    """Coverage of the campaign against a result store (+ manifest).

    Grids share points, so the totals count distinct points."""
    in_store: Dict[ExperimentSpec, bool] = {}
    grids = []
    for grid in campaign.grids:
        specs = grid.expand()
        for spec in specs:
            if spec not in in_store:
                in_store[spec] = (store is not None
                                  and store.get(spec) is not None)
        have = sum(in_store[s] for s in specs)
        grids.append({
            "id": grid.id, "figure": grid.figure, "title": grid.title,
            "points": len(specs), "done": have,
            "coverage": round(have / len(specs), 4) if specs else 1.0,
        })
    total = len(in_store)
    done = sum(in_store.values())
    out = {
        "campaign": campaign.name,
        "slice": campaign.slice_name,
        "points": total,
        "done": done,
        "coverage": round(done / total, 4) if total else 1.0,
        "grids": grids,
    }
    if manifest_counts is not None:
        out["manifest"] = manifest_counts
    return out


def format_status(status: Dict[str, Any]) -> str:
    lines = [f"campaign {status['campaign']}"
             + (f" · slice {status['slice']}" if status["slice"] else "")
             + f": {status['done']}/{status['points']} distinct point(s) "
             f"in store ({100 * status['coverage']:.1f}%)"]
    for grid in status["grids"]:
        fig = f" [{grid['figure']}]" if grid["figure"] else ""
        lines.append(f"  {grid['id']:20s}{fig} "
                     f"{grid['done']:5d}/{grid['points']:<5d} "
                     f"({100 * grid['coverage']:.1f}%)")
    if "manifest" in status:
        counts = status["manifest"]
        lines.append("  manifest: " + ", ".join(
            f"{counts.get(k, 0)} {k}" for k in ("done", "failed", "pending")))
    return "\n".join(lines)


def _policy_cores(operand: str, grid: CampaignGrid
                  ) -> Tuple[str, Optional[int]]:
    policy, at, count = operand.partition("@")
    if at:
        return policy, int(count)
    return policy, grid.cores[0] if len(grid.cores) == 1 else None


def _operand_value(operand: Operand, other: Operand, grid: CampaignGrid,
                   aggregates: Mapping[Tuple[str, int], Any]
                   ) -> Optional[float]:
    """An operand's value, or ``None`` when a point behind it is missing
    (or the slice removed its policy or core count)."""
    if not isinstance(operand, str):
        return operand
    if operand != "best":
        return aggregates.get(_policy_cores(operand, grid))
    policy, cores = _policy_cores(str(other), grid)
    rivals = [aggregates.get((p, cores)) for p in grid.policies
              if p != policy]
    if not rivals or any(v is None for v in rivals):
        return None
    return max(rivals)


def _verdict(claim: Claim, grid: CampaignGrid,
             aggregates: Mapping[Tuple[str, int], Any]) -> Dict[str, Any]:
    left = _operand_value(claim.left, claim.right, grid, aggregates)
    right = _operand_value(claim.right, claim.left, grid, aggregates)
    if left is None or right is None:
        verdict = "missing"
    else:
        verdict = "holds" if claim.holds(left, right) else "fails"
    return {"text": claim.text, "left": claim.left, "op": claim.op,
            "right": claim.right, "tol": claim.tol, "left_value": left,
            "right_value": right, "verdict": verdict}


def _grid_report(grid: CampaignGrid, lookup, baseline: str
                 ) -> Dict[str, Any]:
    """One grid's metric per row and per (policy, cores) aggregate, the
    paper's values and a verdict per claim."""
    from ..obs.report import aggregate, metric_value

    def value(spec: ExperimentSpec):
        result = lookup(spec)
        if result is None:
            return None
        if grid.metric not in _RATIOS:
            return metric_value(grid.metric, result)
        base = lookup(replace(spec, policy=baseline))
        alone = []
        if grid.metric == "weighted_ipc":
            alone = [lookup(s) for s in grid.alone_points(
                spec.mix_id, spec.n_cores, spec.prefetch)]
        if base is None or any(r is None for r in alone):
            return None
        return metric_value(grid.metric, result, base,
                            [r.ipc[0] for r in alone])

    rows = []
    columns: Dict[Tuple[str, int], List] = {}
    for cores in grid.cores:
        for prefetch in grid.prefetch:
            for unit in grid.units():
                label = f"mix{unit:03d}" if grid.suite == "mix" else unit
                if len(grid.prefetch) > 1:
                    label += " pf" if prefetch else " nopf"
                values = {}
                for policy in grid.policies:
                    values[policy] = value(
                        grid.point(unit, policy, cores, prefetch))
                    columns.setdefault((policy, cores), []).append(
                        values[policy])
                rows.append({"workload": label, "cores": cores,
                             "values": values})
    aggregates = {
        key: (None if not vals or any(v is None for v in vals)
              else aggregate(grid.metric, vals))
        for key, vals in columns.items()}
    specs = grid.expand()
    done = sum(lookup(s) is not None for s in specs)
    return {
        "id": grid.id, "figure": grid.figure, "title": grid.title,
        "suite": grid.suite, "metric": grid.metric,
        "points": len(specs), "done": done,
        "coverage": round(done / len(specs), 4) if specs else 1.0,
        "policies": list(grid.policies),
        "rows": rows,
        "aggregate": [{"cores": cores,
                       "values": {p: aggregates[(p, cores)]
                                  for p in grid.policies}}
                      for cores in grid.cores],
        "paper": dict(grid.paper),
        "claims": [_verdict(c, grid, aggregates) for c in grid.claims],
    }


def build_campaign_report(campaign: Campaign, store,
                          baseline: Optional[str] = None) -> Dict[str, Any]:
    """Per-grid figure/table reproduction from stored results."""
    baseline = baseline or campaign.baseline
    cache: Dict[ExperimentSpec, Any] = {}

    def lookup(spec: ExperimentSpec):
        if spec not in cache:
            cache[spec] = store.get(spec) if store is not None else None
        return cache[spec]

    return {
        "schema": "repro.campaign.report/v2",
        "campaign": campaign.name,
        "slice": campaign.slice_name,
        "baseline": baseline,
        "grids": [_grid_report(g, lookup, baseline)
                  for g in campaign.grids],
    }


#: per-metric y-axis caption and number format for the markdown report
_CAPTIONS = {
    "speedup": ("speedup over `{}` (sum-IPC ratio), geomean", ".3f"),
    "weighted_ipc": ("weighted IPC normalized to `{}` (IPC-alone: 1-core "
                     "LRU), geomean", ".3f"),
    "pmr": ("LLC pure miss rate, mean", ".3f"),
    "mean_pmc": ("mean PMC (cycles), mean", ".1f"),
    "aocpa": ("AOCPA (cycles), mean", ".2f"),
    "hit_miss_overlap": ("share of LLC misses with hit-miss overlap, mean",
                         ".3f"),
    "pmc_hist": ("PMC histogram, % per 50-cycle bin (1: 0-49 ... 8: 350+), "
                 "mean", ".3f"),
}


def _cell(value, metric: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, list):             # pmc_hist shares
        return "/".join(f"{100 * share:.0f}" for share in value)
    return format(value, _CAPTIONS[metric][1])


def _operand_text(operand: Operand, value, metric: str) -> str:
    if not isinstance(operand, str):
        return f"{operand:g}"
    return f"{operand} = {_cell(value, metric)}"


def _metric_table(grid: Dict[str, Any], baseline: str) -> List[str]:
    """A grid's metric caption, per-workload rows, aggregate rows and
    paper rows as markdown lines."""
    metric = grid["metric"]
    policies = grid["policies"]
    lines = [f"`{metric}`: {_CAPTIONS[metric][0].format(baseline)}.", "",
             "| workload | cores | " + " | ".join(policies) + " |",
             "|---|---:|" + "---:|" * len(policies)]
    for row in grid["rows"]:
        cells = [_cell(row["values"][p], metric) for p in policies]
        lines.append(f"| {row['workload']} | {row['cores']} | "
                     + " | ".join(cells) + " |")
    mean = "geomean" if metric in _RATIOS else "mean"
    for agg in grid["aggregate"]:
        cells = [_cell(agg["values"][p], metric) for p in policies]
        lines.append(f"| **{mean}** | {agg['cores']} | "
                     + " | ".join(cells) + " |")
    single = len(grid["aggregate"]) == 1
    for agg in grid["aggregate"]:
        paper = [grid["paper"].get(f"{p}@{agg['cores']}",
                                   grid["paper"].get(p) if single else None)
                 for p in policies]
        if any(v is not None for v in paper):
            lines.append(f"| **paper** | {agg['cores']} | "
                         + " | ".join(_cell(v, metric) for v in paper)
                         + " |")
    return lines


def render_campaign_markdown(report: Dict[str, Any]) -> str:
    """Markdown for humans and ``$GITHUB_STEP_SUMMARY``."""
    head = f"# Campaign report · {report['campaign']}"
    if report["slice"]:
        head += f" · slice `{report['slice']}`"
    lines = [head, ""]
    lines.append("| grid | figure | metric | points | done | coverage "
                 "| claims |")
    lines.append("|---|---|---|---:|---:|---:|---|")
    for grid in report["grids"]:
        verdicts = [c["verdict"] for c in grid["claims"]]
        tally = ", ".join(f"{verdicts.count(v)} {v}"
                          for v in ("holds", "fails", "missing")
                          if v in verdicts) or "-"
        lines.append(f"| {grid['id']} | {grid['figure'] or '-'} | "
                     f"{grid['metric']} | {grid['points']} | "
                     f"{grid['done']} | {100 * grid['coverage']:.1f}% | "
                     f"{tally} |")
    for grid in report["grids"]:
        lines.append("")
        fig = f" ({grid['figure']})" if grid["figure"] else ""
        lines.append(f"## {grid['id']}{fig} — {grid['title'] or grid['id']}")
        lines.append("")
        if grid["done"] == 0:
            lines.append("_No stored results yet — run the campaign "
                         "(or this slice) first._")
        else:
            lines.extend(_metric_table(grid, report["baseline"]))
        if grid["claims"]:
            lines.append("")
            lines.append("| claim | left | op | right | tol | verdict |")
            lines.append("|---|---|:-:|---|---:|---|")
            for claim in grid["claims"]:
                left = _operand_text(claim["left"], claim["left_value"],
                                     grid["metric"])
                right = _operand_text(claim["right"], claim["right_value"],
                                      grid["metric"])
                lines.append(f"| {claim['text']} | {left} | {claim['op']} "
                             f"| {right} | {claim['tol']:g} | "
                             f"**{claim['verdict']}** |")
    return "\n".join(lines).rstrip("\n") + "\n"
