#!/usr/bin/env python
"""Multi-programmed LLC study: the paper's 4-core methodology end to end.

Builds a 4-core *mixed* workload (different SPEC-like benchmarks per core),
runs it under every scheme the paper compares with prefetching enabled, and
reports normalized weighted IPC — a miniature of Fig. 10.

    python examples/multicore_llc_study.py [--cores 4] [--records 8000]
"""

import argparse

from repro.analysis import format_bars, format_table, normalized_weighted_ipc
from repro.sim import SystemConfig, simulate
from repro.workloads import mixed_workload_names, mixed_workload_traces

SCHEMES = ["lru", "shippp", "hawkeye", "glider", "mcare", "care"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--records", type=int, default=8000)
    parser.add_argument("--mix", type=int, default=0,
                        help="seeded mix id (0-99)")
    args = parser.parse_args()

    names = mixed_workload_names(args.cores, args.mix)
    print(f"mix {args.mix}: " + ", ".join(names))
    traces = mixed_workload_traces(args.cores, args.mix,
                                   n_records=args.records)
    cfg = SystemConfig.default(args.cores)

    # IPC_alone: each benchmark on an otherwise idle machine (LRU).
    alone = []
    for slot, trace in enumerate(traces):
        res = simulate([trace], cfg=SystemConfig.default(1),
                       llc_policy="lru", prefetch=True,
                       measure_records=args.records // 2,
                       warmup_records=args.records // 2, seed=1)
        alone.append(res.ipc[0])
        print(f"  core {slot}: {names[slot]:18s} alone IPC {res.ipc[0]:.3f}")

    # Shared runs under each scheme.
    runs = {}
    for policy in SCHEMES:
        runs[policy] = simulate(
            traces, cfg=cfg, llc_policy=policy, prefetch=True,
            measure_records=args.records // 2,
            warmup_records=args.records // 2, seed=1)

    base = runs["lru"]
    rows = []
    normalized = {}
    for policy, res in runs.items():
        nw = normalized_weighted_ipc(res, base, alone)
        normalized[policy] = nw
        rows.append([
            policy, f"{sum(res.ipc):.3f}", f"{nw:.3f}",
            f"{res.pmr:.3f}", f"{res.mean_pmc:.1f}",
        ])
    print()
    print(format_table(
        ["policy", "sum IPC", "norm. weighted IPC", "pMR", "mean PMC"],
        rows))
    print()
    print(format_bars(normalized, baseline=normalized["lru"]))


if __name__ == "__main__":
    main()
