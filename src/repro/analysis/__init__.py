"""Metrics, paper analytics (study case, C-AMAT, hardware cost), reporting."""

from .metrics import (
    geometric_mean,
    normalized_ipc,
    normalized_weighted_ipc,
    speedup_summary,
    total_ipc,
    weighted_speedup,
)
from .studycase import (
    EXPECTED_MLP,
    EXPECTED_PMC,
    EXPECTED_PURE_CYCLES,
    STUDY_CASE,
    CaseAccess,
    CaseResult,
    analyze_case,
    paper_study_case,
)
from .camat import CAMATBreakdown, camat_breakdown
from .hwcost import (
    PAPER_TABLE6_KB,
    CostItem,
    CostReport,
    care_concurrency_kb,
    care_cost,
    framework_costs,
)
from .reporting import banner, format_bars, format_table

__all__ = [
    "geometric_mean", "normalized_ipc", "normalized_weighted_ipc",
    "speedup_summary", "total_ipc", "weighted_speedup",
    "EXPECTED_MLP", "EXPECTED_PMC", "EXPECTED_PURE_CYCLES", "STUDY_CASE",
    "CaseAccess", "CaseResult", "analyze_case", "paper_study_case",
    "CAMATBreakdown", "camat_breakdown",
    "PAPER_TABLE6_KB", "CostItem", "CostReport", "care_concurrency_kb",
    "care_cost", "framework_costs",
    "banner", "format_bars", "format_table",
]
