#!/usr/bin/env python
"""Quickstart: simulate one workload under LRU and CARE and compare.

Runs a single-core machine on a synthetic mcf-like (pointer-chasing)
workload, first with the LRU baseline and then with CARE, and prints the
metrics the paper revolves around: IPC, MPKI, pure miss rate (pMR), mean
PMC, and the PMC histogram.

    python examples/quickstart.py
"""

from repro.analysis import format_table
from repro.core.pmc import PMC_BIN_WIDTH, PMC_NUM_BINS
from repro.sim import SystemConfig, simulate
from repro.workloads import spec_trace


def main() -> None:
    # 1. Generate a workload trace.  "429.mcf" is the paper's canonical
    #    pointer-chasing benchmark: dependent loads produce isolated,
    #    expensive (high-PMC) misses.
    trace = spec_trace("429.mcf", n_records=12000, seed=42)
    print(f"workload: {trace.name}  ({trace.memory_accesses} accesses, "
          f"{trace.instructions} instructions, "
          f"{trace.footprint_blocks()} blocks touched)")

    # 2. Simulate the same machine with two LLC policies.
    cfg = SystemConfig.default(n_cores=1)
    results = {}
    for policy in ("lru", "care"):
        results[policy] = simulate(
            [trace], cfg=cfg, llc_policy=policy, prefetch=True,
            measure_records=6000, warmup_records=6000, seed=1)

    # 3. Compare.
    rows = []
    for policy, res in results.items():
        rows.append([
            policy, f"{res.ipc[0]:.3f}", f"{res.mpki():.2f}",
            f"{res.pmr:.3f}", f"{res.mean_pmc:.1f}", f"{res.aocpa:.1f}",
        ])
    print()
    print(format_table(
        ["policy", "IPC", "MPKI", "pMR", "mean PMC", "AOCPA"], rows))

    speedup = results["care"].ipc[0] / results["lru"].ipc[0]
    print(f"\nCARE speedup over LRU: {speedup:.3f}x")

    # 4. The PMC histogram (Fig. 5's view) under LRU: not all misses cost
    #    the same — the insight CARE is built on.
    hist = results["lru"].conc_total.pmc_histogram
    total = max(1, sum(hist))
    print("\nPMC distribution of LLC misses under LRU:")
    for i in range(PMC_NUM_BINS):
        lo = i * PMC_BIN_WIDTH
        label = (f"{lo:>4}-{lo + PMC_BIN_WIDTH - 1} cyc"
                 if i < PMC_NUM_BINS - 1 else f"{lo:>4}+ cyc   ")
        bar = "#" * int(50 * hist[i] / total)
        print(f"  {label} {bar} {hist[i] / total:.1%}")


if __name__ == "__main__":
    main()
