#!/usr/bin/env python
"""GAP graph-analytics workloads under CARE (the paper's Fig. 9 domain).

Executes real graph kernels (BFS, PageRank, SSSP, ...) over the synthetic
Table IX graphs, traces their memory behavior, and compares LRU vs SHiP++
vs CARE on a 4-core multi-copy run — the setting where the paper argues
irregular access patterns defeat pure re-reference prediction while
concurrency-awareness still helps.

    python examples/graph_analytics.py [--workload bfs-or] [--cores 4]
"""

import argparse

from repro.analysis import format_table
from repro.sim import SystemConfig, simulate
from repro.workloads import (
    GRAPH_SPECS,
    build_graph,
    gap_trace,
    gap_workload_names,
    multicopy_traces,
)

SCHEMES = ["lru", "shippp", "care"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="bfs-or",
                        choices=gap_workload_names())
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--records", type=int, default=8000)
    args = parser.parse_args()

    alg, gkey = args.workload.split("-")
    spec = GRAPH_SPECS[gkey]
    graph = build_graph(gkey)
    print(f"kernel {alg} on {spec.full_name}: |V|={graph.n_vertices} "
          f"|E|={graph.n_edges} (paper scale: {spec.paper_vertices} / "
          f"{spec.paper_edges})")

    sample = gap_trace(args.workload, n_records=2000, seed=0)
    print(f"trace sample: {sample.memory_accesses} accesses over "
          f"{sample.footprint_blocks()} blocks, "
          f"{len({r.pc for r in sample.records})} distinct access-site PCs")

    traces = multicopy_traces(args.workload, args.cores, args.records,
                              seed=7, suite="gap")
    cfg = SystemConfig.default(args.cores)
    rows = []
    base_ipc = None
    for policy in SCHEMES:
        res = simulate(traces, cfg=cfg,
                       llc_policy=policy, prefetch=True,
                       measure_records=args.records // 2,
                       warmup_records=args.records // 2, seed=1)
        total = sum(res.ipc)
        if base_ipc is None:
            base_ipc = total
        rows.append([
            policy, f"{total:.3f}", f"{total / base_ipc:.3f}",
            f"{res.mpki():.2f}", f"{res.pmr:.3f}", f"{res.mean_pmc:.1f}",
        ])
    print()
    print(format_table(
        ["policy", "sum IPC", "vs LRU", "MPKI", "pMR", "mean PMC"], rows))


if __name__ == "__main__":
    main()
