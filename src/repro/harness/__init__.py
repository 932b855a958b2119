"""Experiment orchestration: specs, the parallel runner, the persistent
result store, figure sweeps, and the standalone cache sim."""

from .cachesim import CacheSimResult, simulate_cache
from .campaign import (
    Campaign,
    CampaignError,
    CampaignGrid,
    apply_slice,
    available_campaigns,
    build_campaign_report,
    campaign_status,
    find_campaign,
    load_campaign,
    parse_campaign,
    render_campaign_markdown,
)
from .replication import pairwise_verdicts, replicated_speedups
from .scale import BenchScale, get_scale, scale_override, set_scale
from .spec import ExperimentSpec
from .store import (FsckReport, ResultStore, code_fingerprint,
                    default_store, set_default_store)
from .supervise import (
    FailedResult,
    RetryPolicy,
    SweepFailedError,
    SweepInterrupted,
    SweepManifest,
    SweepSupervisor,
    active_supervisor,
    compute_timeout,
    format_failure_table,
    supervised_sweep,
)
from .runner import (
    SweepStats,
    resolve_workers,
    run,
    run_many,
    session_stats,
)
from .experiment import (
    NOPREFETCH_SCHEMES,
    PREFETCH_SCHEMES,
    bench_gap_workloads,
    bench_spec_workloads,
    clear_cache,
    run_mix,
    run_multicopy,
    run_single,
    scaling_sweep,
    speedup_sweep,
)

_LEGACY_SCALE_ATTRS = ("BENCH_RECORDS", "BENCH_WORKLOADS", "BENCH_MIXES")


def __getattr__(name: str):
    """Legacy scale constants resolve lazily from the active BenchScale."""
    if name in _LEGACY_SCALE_ATTRS:
        from . import experiment
        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CacheSimResult", "simulate_cache",
    "Campaign", "CampaignError", "CampaignGrid", "apply_slice",
    "available_campaigns", "build_campaign_report", "campaign_status",
    "find_campaign", "load_campaign", "parse_campaign",
    "render_campaign_markdown",
    "pairwise_verdicts", "replicated_speedups",
    "BenchScale", "get_scale", "set_scale", "scale_override",
    "ExperimentSpec",
    "FsckReport", "ResultStore", "code_fingerprint", "default_store",
    "set_default_store",
    "FailedResult", "RetryPolicy", "SweepFailedError", "SweepInterrupted",
    "SweepManifest", "SweepSupervisor", "active_supervisor",
    "compute_timeout", "format_failure_table", "supervised_sweep",
    "SweepStats", "resolve_workers", "run", "run_many", "session_stats",
    "BENCH_MIXES", "BENCH_RECORDS", "BENCH_WORKLOADS",
    "NOPREFETCH_SCHEMES", "PREFETCH_SCHEMES",
    "bench_gap_workloads", "bench_spec_workloads", "clear_cache",
    "run_mix", "run_multicopy", "run_single", "scaling_sweep",
    "speedup_sweep",
]
