"""Supervision incident log: what went wrong during a sweep, and when.

The sweep supervisor (:mod:`repro.harness.supervise`) records every
retry, timeout, crash, resource-guard breach, interrupt and permanent
failure into one :class:`IncidentLog` per CLI invocation.  At the end
of ``run``/``campaign run`` the log is written as
``<obs-dir>/<tag>.incidents.json`` (only when something happened), and
``python -m repro report --incidents FILE`` renders it as a markdown
section.

The JSON layout (schema 1)::

    {"schema": 1, "tag": "campaign-care-paper-ci-smoke",
     "events": [{"event": "retry", "t": 1786224094.59,
                 "error": "WorkerTimeout", "attempt": 0,
                 "label": "429.mcf/care/2c/nopf", "key": "a5dac1c05180"}]}

Each event holds its kind, a wall-clock stamp ``t`` and whatever fields
the recording site passed, in insertion order.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

log = logging.getLogger(__name__)

#: Bump when the incidents JSON layout changes incompatibly.
INCIDENTS_SCHEMA_VERSION = 1

#: Fields shown in their own table columns by :meth:`render_markdown`.
_COLUMNS = ("event", "t", "label", "key", "error")


class IncidentLog:
    """Append-only list of supervision events for one tagged run."""

    def __init__(self, tag: str = "run",
                 events: Optional[List[Dict[str, Any]]] = None) -> None:
        self.tag = tag
        self.events: List[Dict[str, Any]] = list(events or [])

    def add(self, event: str, **fields: Any) -> None:
        entry: Dict[str, Any] = {"event": event, "t": time.time()}
        entry.update(fields)
        self.events.append(entry)

    def __len__(self) -> int:
        return len(self.events)

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"schema": INCIDENTS_SCHEMA_VERSION, "tag": self.tag,
                "events": [dict(e) for e in self.events]}

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=str)
                        + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "IncidentLog":
        """Read a log written by :meth:`write`; ValueError if malformed."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict) \
                or data.get("schema") != INCIDENTS_SCHEMA_VERSION:
            raise ValueError(f"{path}: not a schema-"
                             f"{INCIDENTS_SCHEMA_VERSION} incidents file")
        events = data.get("events")
        if not isinstance(events, list) \
                or not all(isinstance(e, dict) and "event" in e
                           for e in events):
            raise ValueError(f"{path}: malformed incident events")
        return cls(tag=str(data.get("tag", "run")), events=events)

    # -- rendering ------------------------------------------------------
    def render_markdown(self) -> str:
        lines = [f"### Incidents ({self.tag})", ""]
        if not self.events:
            lines.append("_No incidents._")
            return "\n".join(lines) + "\n"
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e["event"]] = counts.get(e["event"], 0) + 1
        lines.append(", ".join(f"{n} {kind}" for kind, n in counts.items()))
        lines.append("")
        lines.append("| # | event | point | error | details |")
        lines.append("|---|---|---|---|---|")
        for i, e in enumerate(self.events, 1):
            point = e.get("label", "-")
            if "key" in e:
                point = f"{point} (`{e['key']}`)"
            details = ", ".join(f"{k}={v}" for k, v in e.items()
                                if k not in _COLUMNS)
            lines.append(f"| {i} | {e['event']} | {point} | "
                         f"{e.get('error', '-')} | {details or '-'} |")
        return "\n".join(lines) + "\n"


def maybe_write(incidents: Optional[IncidentLog],
                obs_dir: Optional[Union[str, Path]]) -> Optional[Path]:
    """Write ``<obs_dir>/<tag>.incidents.json`` if anything was logged.

    Returns the written path, or ``None`` when there is nothing to write
    (no log, no incidents, no directory) or the write failed — a lost
    incident artifact is warned about, never allowed to mask the run's
    own exit status.
    """
    if incidents is None or not len(incidents) or not obs_dir:
        return None
    name = incidents.tag.replace("/", "-") + ".incidents.json"
    try:
        return incidents.write(Path(obs_dir) / name)
    except OSError as exc:
        log.warning("could not write incident log: %s", exc)
        return None
