"""Workload substrate: SPEC-like and GAP trace generation (Tables VIII & IX).

The GAP kernels, the graph loader and the serving generators resolve on
first use (PEP 562, :data:`_LAZY`), so a SPEC-like point does not import
them.
"""

from importlib import import_module
from typing import Any, Dict, List, Tuple

from .trace import Trace, TraceRecord, make_trace
from .patterns import (
    HotColdPattern,
    Pattern,
    PointerChasePattern,
    RandomPattern,
    ScanPattern,
    StreamPattern,
    StridePattern,
    WeightedPattern,
    WorkloadMix,
    ZipfianPattern,
)
from .spec_like import (
    DEFAULT_SCALE,
    FIG5_WORKLOADS,
    SPEC_BENCHMARKS,
    SpecBenchmark,
    spec_benchmark,
    spec_names,
    spec_trace,
)
from .mixes import (
    N_MIXES,
    mixed_workload_names,
    mixed_workload_traces,
    multicopy_traces,
)
from .io import (
    load_trace,
    pack_champsim_instruction,
    read_champsim_trace,
    save_trace,
)
from .tracecache import (
    TraceCache,
    cached_trace,
    default_trace_cache,
    reset_default_trace_cache,
    set_default_trace_cache,
    trace_key,
    workloads_fingerprint,
)

__all__ = [
    "Trace", "TraceRecord", "make_trace",
    "Pattern", "StreamPattern", "StridePattern", "RandomPattern",
    "PointerChasePattern", "HotColdPattern", "ScanPattern",
    "ZipfianPattern", "WeightedPattern", "WorkloadMix",
    "SERVE_FAMILIES", "SERVE_WORKLOADS", "ServeWorkload",
    "serve_names", "serve_trace", "serve_workload", "zipf_mass",
    "DEFAULT_SCALE", "FIG5_WORKLOADS", "SPEC_BENCHMARKS", "SpecBenchmark",
    "spec_benchmark", "spec_names", "spec_trace",
    "CSRGraph", "GRAPH_SPECS", "build_graph", "graph_keys",
    "gap_algorithms", "gap_trace", "gap_workload_names",
    "N_MIXES", "mixed_workload_names", "mixed_workload_traces",
    "multicopy_traces",
    "load_trace", "pack_champsim_instruction", "read_champsim_trace",
    "save_trace",
    "TraceCache", "cached_trace", "default_trace_cache",
    "reset_default_trace_cache", "set_default_trace_cache", "trace_key",
    "workloads_fingerprint",
]

#: defining module (relative to this package) -> the public names it
#: provides that resolve on first use
_LAZY: Dict[str, Tuple[str, ...]] = {
    ".serving": ("SERVE_FAMILIES", "SERVE_WORKLOADS", "ServeWorkload",
                 "serve_names", "serve_trace", "serve_workload", "zipf_mass"),
    ".graphs": ("CSRGraph", "GRAPH_SPECS", "build_graph", "graph_keys"),
    ".gap": ("gap_algorithms", "gap_trace", "gap_workload_names"),
}

_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str) -> Any:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value          # later lookups skip this hook
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
