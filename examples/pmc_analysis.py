#!/usr/bin/env python
"""PMC deep dive: measurement, distribution, predictability, C-AMAT view.

Walks through the paper's Section III/IV analysis on a live simulation:

1. the Fig. 2 study case, exactly (Tables I & II),
2. the PMC distribution of a real workload's LLC misses (Fig. 5's view),
3. PMC predictability per PC (Table III's view),
4. the C-AMAT decomposition the PMC metric derives from.

    python examples/pmc_analysis.py [--workload 429.mcf]
"""

import argparse

from repro.analysis import (
    camat_breakdown,
    format_table,
    paper_study_case,
)
from repro.core.pmc import PMC_BIN_WIDTH, PMC_NUM_BINS, pmc_delta_summary
from repro.sim import SystemConfig, simulate
from repro.workloads import spec_names, spec_trace


def show_study_case() -> None:
    print("=" * 64)
    print("1. Study case (Fig. 2): why MLP-based cost is not enough")
    print("=" * 64)
    result = paper_study_case()
    rows = [[label, str(result.mlp_cost[label]), str(result.pmc[label])]
            for label in sorted(result.mlp_cost)]
    print(format_table(["miss", "MLP-based cost", "PMC"], rows))
    print("-> A has the highest MLP cost yet zero PMC: every one of its")
    print("   miss cycles hides under other accesses' base cycles.\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="429.mcf",
                        choices=spec_names())
    parser.add_argument("--records", type=int, default=12000)
    args = parser.parse_args()

    show_study_case()

    trace = spec_trace(args.workload, n_records=args.records, seed=11)
    res = simulate([trace], cfg=SystemConfig.default(1),
                   llc_policy="lru", prefetch=False,
                   measure_records=args.records // 2,
                   warmup_records=args.records // 2,
                   collect_deltas=True, seed=1)
    stats = res.conc[0]

    print("=" * 64)
    print(f"2. PMC distribution for {args.workload} (Fig. 5's view)")
    print("=" * 64)
    total = max(1, sum(stats.pmc_histogram))
    for i, count in enumerate(stats.pmc_histogram):
        lo = i * PMC_BIN_WIDTH
        label = (f"{lo}-{lo + PMC_BIN_WIDTH - 1}"
                 if i < PMC_NUM_BINS - 1 else f"{lo}+")
        print(f"  {label:>8} cyc  {'#' * int(40 * count / total):40s} "
              f"{count / total:6.1%}")
    print(f"  misses={stats.misses}  pure misses={stats.pure_misses} "
          f"(pMR={stats.pure_miss_rate:.3f})  mean PMC={stats.mean_pmc:.1f}\n")

    print("=" * 64)
    print("3. PMC predictability per PC (Table III's view)")
    print("=" * 64)
    summary = pmc_delta_summary(res.pmc_deltas[0])
    print(format_table(
        ["|PMC delta| bucket", "share"],
        [[k, f"{summary[k]:.1%}"] for k in
         ("[0,50)", "[50,100)", "[100,150)", ">=150")]))
    print(f"  median |PMC delta| = {summary['median']:.2f} cycles")
    print("-> consecutive misses of one PC have similar PMC, so the past")
    print("   predicts the future - the basis for CARE's PD counters.\n")

    print("=" * 64)
    print("4. C-AMAT decomposition (Section II-B)")
    print("=" * 64)
    b = camat_breakdown(stats)
    print(f"  C-AMAT            = {b.camat:8.2f} cycles/access")
    print(f"  hit/overlap term  = {b.hit_term:8.2f}")
    print(f"  pMR x pAMP        = {b.pure_miss_term:8.2f} "
          f"(pMR={b.pure_miss_rate:.3f}, pAMP={b.pamp:.1f})")
    print("-> only the pure-miss term hurts; CARE shrinks exactly that.")


if __name__ == "__main__":
    main()
