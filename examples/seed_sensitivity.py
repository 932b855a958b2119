#!/usr/bin/env python
"""Seed-sensitivity study: does CARE's win hold across trace seeds?

Repeats the 4-core multi-copy experiment across several trace seeds and
reports each scheme's speedup over LRU (mean and sample standard
deviation), and whether its lead over the SHiP++ baseline holds on every
seed.  A lead that holds on some seeds only is not a result.  Use this
before trusting any single-seed number from a reduced-scale run.

    python examples/seed_sensitivity.py [--seeds 5] [--workload 429.mcf]
"""

import argparse
import statistics

from repro.analysis import format_table
from repro.sim import SystemConfig, simulate
from repro.workloads import multicopy_traces, spec_names

SCHEMES = ["shippp", "mcare", "care"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="429.mcf", choices=spec_names())
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--records", type=int, default=8000)
    args = parser.parse_args()

    cfg = SystemConfig.default(args.cores)
    speedups = {policy: [] for policy in SCHEMES}
    for seed in range(args.seeds):
        traces = multicopy_traces(args.workload, args.cores, args.records,
                                  seed=100 + seed)
        base = simulate(traces, cfg=cfg, llc_policy="lru", prefetch=True,
                        measure_records=args.records // 2,
                        warmup_records=args.records // 2, seed=seed)
        base_ipc = sum(base.ipc)
        for policy in SCHEMES:
            res = simulate(traces, cfg=cfg, llc_policy=policy,
                           prefetch=True,
                           measure_records=args.records // 2,
                           warmup_records=args.records // 2, seed=seed)
            speedups[policy].append(sum(res.ipc) / base_ipc)
        print(f"seed {seed}: " + "  ".join(
            f"{p}={speedups[p][-1]:.3f}" for p in SCHEMES))

    print()
    rows = []
    for policy in SCHEMES:
        values = speedups[policy]
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        if policy == "shippp":
            lead = "-"
        else:
            wins = sum(v > b for v, b in zip(values, speedups["shippp"]))
            lead = f"{wins}/{len(values)} seeds"
            if wins == len(values):
                lead += " (holds)"
        rows.append([policy, f"{statistics.mean(values):.3f}", f"{std:.3f}",
                     lead])
    print(format_table(["policy", "mean speedup", "std", "beats shippp"],
                       rows))


if __name__ == "__main__":
    main()
