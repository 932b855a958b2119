"""Experiment orchestration: specs, the parallel runner, the persistent
result store, campaigns (the paper's figures as data), and the
standalone cache sim."""

from ..durable import FsckReport
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
from .spec import ExperimentSpec
from .store import (ResultStore, code_fingerprint, default_store,
                    set_default_store)
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

__all__ = [
    "CacheSimResult", "simulate_cache",
    "Campaign", "CampaignError", "CampaignGrid", "apply_slice",
    "available_campaigns", "build_campaign_report", "campaign_status",
    "find_campaign", "load_campaign", "parse_campaign",
    "render_campaign_markdown",
    "ExperimentSpec",
    "FsckReport", "ResultStore", "code_fingerprint", "default_store",
    "set_default_store",
    "FailedResult", "RetryPolicy", "SweepFailedError", "SweepInterrupted",
    "SweepManifest", "SweepSupervisor", "active_supervisor",
    "compute_timeout", "format_failure_table", "supervised_sweep",
    "SweepStats", "resolve_workers", "run", "run_many", "session_stats",
]
