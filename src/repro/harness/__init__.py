"""Experiment orchestration: specs, the parallel runner, the persistent
result store, campaigns (the paper's figures as data), and the
standalone cache sim.

The public names below resolve on first use (PEP 562), so one
simulation point, which needs only :mod:`repro.harness.spec`, does not
import the campaign, runner, supervisor, store and cache-sim modules.
Code inside ``repro`` imports a name from its defining submodule.
"""

from importlib import import_module
from typing import Any, Dict, List, Tuple

#: defining module (relative to this package) -> the public names it
#: provides, in ``__all__`` order
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    ".cachesim": ("CacheSimResult", "simulate_cache"),
    ".campaign": (
        "Campaign", "CampaignError", "CampaignGrid", "apply_slice",
        "available_campaigns", "build_campaign_report", "campaign_status",
        "find_campaign", "load_campaign", "parse_campaign",
        "render_campaign_markdown",
    ),
    ".spec": ("ExperimentSpec",),
    "..durable": ("FsckReport",),
    ".store": ("ResultStore", "code_fingerprint", "default_store",
               "set_default_store"),
    ".supervise": (
        "FailedResult", "RetryPolicy", "SweepFailedError",
        "SweepInterrupted", "SweepManifest", "SweepSupervisor",
        "active_supervisor", "compute_timeout", "format_failure_table",
        "supervised_sweep",
    ),
    ".runner": ("SweepStats", "resolve_workers", "run", "run_many",
                "session_stats"),
}

__all__: List[str] = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str) -> Any:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value          # later lookups skip this hook
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
