"""Mixed multi-programmed workloads (Section VI / Fig. 10 methodology).

"For an n-core mixed workload, we select n benchmarks randomly from the 30
memory-intensive SPEC benchmarks and run one trace in each core.  We
generate 100 mixed workloads in total."  The selection here is seeded and
deterministic so every scheme sees the identical 100 mixes.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence

from .spec_like import DEFAULT_SCALE, spec_names
from .trace import Trace
from .tracecache import USE_DEFAULT_CACHE, cached_trace

#: the paper's mixed-workload count
N_MIXES = 100


def mixed_workload_names(n_cores: int, mix_id: int,
                         universe: Sequence[str] = None) -> List[str]:
    """The benchmark names composing mix ``mix_id`` (same for every scheme)."""
    if mix_id < 0:
        raise ValueError("mix_id must be >= 0")
    names = list(universe) if universe is not None else spec_names()
    rng = random.Random(0xA11CE + 7919 * mix_id)
    return [names[rng.randrange(len(names))] for _ in range(n_cores)]


def mixed_workload_traces(n_cores: int, mix_id: int, n_records: int,
                          seed: int = 0, scale: int = DEFAULT_SCALE,
                          cache: Any = USE_DEFAULT_CACHE) -> List[Trace]:
    """Per-core traces for one mixed workload, through ``cache`` (see
    :func:`~repro.workloads.tracecache.cached_trace`).

    Each slot uses a distinct generation seed so two copies of the same
    benchmark in one mix are *different* trace instances (different address
    regions would be ideal; distinct phases is the practical equivalent the
    multi-copy stagger also provides).
    """
    names = mixed_workload_names(n_cores, mix_id)
    return [
        cached_trace("spec", name, n_records=n_records,
                     seed=seed + 31 * slot, scale=scale, cache=cache)
        for slot, name in enumerate(names)
    ]


def multicopy_traces(name: str, n_cores: int, n_records: int, seed: int = 0,
                     scale: int = DEFAULT_SCALE, suite: str = "spec",
                     cache: Any = USE_DEFAULT_CACHE) -> List[Trace]:
    """n identical-benchmark traces (the paper's multi-copy workloads),
    through ``cache`` (see :func:`~repro.workloads.tracecache.cached_trace`).

    Copies use distinct seeds so the runs are not synchronized, matching
    "each trace does not start exactly at the same time".
    """
    if suite in ("spec", "gap", "serve"):
        return [cached_trace(suite, name, n_records=n_records,
                             seed=seed + 31 * c, scale=scale, cache=cache)
                for c in range(n_cores)]
    raise ValueError(
        f"unknown suite {suite!r} (want 'spec', 'gap' or 'serve')")
