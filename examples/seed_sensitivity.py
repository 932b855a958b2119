#!/usr/bin/env python
"""Seed-sensitivity study: is CARE's win statistically real?

Repeats the 4-core multi-copy experiment across several trace seeds and
reports each scheme's speedup over LRU with a confidence interval, plus a
Welch t-test against the SHiP++ baseline.  Use this before trusting any
single-seed number from a reduced-scale run.

    python examples/seed_sensitivity.py [--seeds 5] [--workload 429.mcf]
"""

import argparse

from repro.analysis import format_table, separable, summarize
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
        s = summarize(speedups[policy])
        rows.append([policy, f"{s.mean:.3f}", f"{s.std:.3f}",
                     f"[{s.ci_low:.3f}, {s.ci_high:.3f}]"])
    print(format_table(["policy", "mean speedup", "std", "95% CI"], rows))

    if args.seeds >= 2:
        for policy in ("mcare", "care"):
            sig, p = separable(speedups[policy], speedups["shippp"])
            verdict = "separable" if sig else "not separable"
            print(f"{policy} vs shippp: p={p:.3f} -> {verdict} at α=0.05")


if __name__ == "__main__":
    main()
