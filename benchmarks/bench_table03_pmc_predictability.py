"""Table III — predictability of PMC: |PMC delta| between consecutive
misses of the same PC (single-core, LRU).

Paper: the majority of deltas are < 50 cycles and medians are low, so past
PMC predicts future PMC per PC.
"""

from repro.analysis import format_table
from repro.core.pmc import pmc_delta_summary
from repro.harness import ExperimentSpec, run
from repro.workloads import FIG5_WORKLOADS

from common import emit, once


def _collect():
    out = {}
    for name in FIG5_WORKLOADS:
        res = run(ExperimentSpec.single(name, "lru", prefetch=False,
                                        collect_deltas=True))
        out[name] = pmc_delta_summary(res.pmc_deltas[0])
    return out


def test_table03_pmc_predictability(benchmark):
    summaries = once(benchmark, _collect)
    rows = []
    for name, s in summaries.items():
        rows.append([name, f"{s['[0,50)']:.1%}", f"{s['[50,100)']:.1%}",
                     f"{s['[100,150)']:.1%}", f"{s['>=150']:.1%}",
                     f"{s['median']:.2f}"])
    emit("table03_pmc_predictability", "\n".join([
        "Table III - distribution and median of |PMC delta| per PC "
        "(1-core, LRU)",
        format_table(["workload", "[0,50)", "[50,100)", "[100,150)",
                      ">=150", "median"], rows),
        "paper: majority of deltas < 50 cycles; medians 1-49 cycles",
    ]))
    majority_small = [s["[0,50)"] for s in summaries.values()]
    # Paper's claim: for all workloads most deltas are small.
    assert sum(v > 0.5 for v in majority_small) >= len(majority_small) * 0.7
