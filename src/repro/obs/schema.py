"""Observability configuration and the columnar metrics schema.

:class:`ObsConfig` is the single knob bundle for the layer: the CLI
builds one from the ``--metrics-interval``/``--trace``/``--trace-sample``
/``--obs-dir`` flags, and it reaches sweep *worker processes* inside the
point's :class:`~repro.harness.config.RunConfig`.

:class:`MetricsTable` is the sampler's output: a columnar time-series
(column name -> list of per-interval values, all the same length) plus a
``meta`` block describing the machine.  Columns are documented in
DESIGN.md §11; the JSON round trip is exact for the integer/float/None
values the sampler emits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Bump when the metrics/trace JSON layout changes incompatibly.
OBS_SCHEMA_VERSION = 1

#: Default sampling interval in cycles when metrics are enabled without
#: an explicit interval (CLI ``--metrics-interval``).
DEFAULT_METRICS_INTERVAL = 10_000

#: Default event-tracer cap: emitted events beyond this are counted as
#: ``dropped`` instead of growing the payload without bound.
DEFAULT_TRACE_LIMIT = 200_000


@dataclass(frozen=True)
class ObsConfig:
    """Frozen observability knobs for one simulation.

    ``metrics_interval`` <= 0 disables the sampler; ``trace`` False
    disables the tracer.  ``trace_sample`` traces every Nth core demand
    request (1 = all).  ``out_dir`` (optional) is where
    ``<tag>.metrics.json`` / ``<tag>.trace.json`` land after the run.
    """

    metrics_interval: int = 0
    trace: bool = False
    trace_sample: int = 1
    trace_limit: int = DEFAULT_TRACE_LIMIT
    out_dir: Optional[str] = None
    tag: str = "run"

    def __post_init__(self) -> None:
        if self.trace_sample < 1:
            raise ValueError("trace_sample must be >= 1")
        if self.trace_limit < 1:
            raise ValueError("trace_limit must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics_interval > 0

    def with_tag(self, tag: str) -> "ObsConfig":
        """Copy with ``tag`` replaced (slashes sanitized for filenames)."""
        return replace(self, tag=tag.replace("/", "-"))


@dataclass
class MetricsTable:
    """Columnar time-series: every column holds one value per sample row."""

    interval: int
    columns: Dict[str, List[Any]] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        for values in self.columns.values():
            return len(values)
        return 0

    def column(self, name: str) -> List[Any]:
        return self.columns[name]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": OBS_SCHEMA_VERSION,
            "interval": self.interval,
            "meta": dict(self.meta),
            "columns": {name: list(values)
                        for name, values in self.columns.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsTable":
        return cls(interval=data["interval"],
                   columns={k: list(v) for k, v in data["columns"].items()},
                   meta=dict(data.get("meta", {})))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsTable":
        return cls.from_dict(json.loads(text))


def write_outputs(obs: ObsConfig, sampler: Any, tracer: Any) -> List[Path]:
    """Persist the attached observers' payloads under ``obs.out_dir``."""
    if not obs.out_dir:
        return []
    out = Path(obs.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    if sampler is not None:
        path = out / f"{obs.tag}.metrics.json"
        path.write_text(sampler.table.to_json() + "\n")
        paths.append(path)
    if tracer is not None:
        path = out / f"{obs.tag}.trace.json"
        tracer.write(path)
        paths.append(path)
    return paths
