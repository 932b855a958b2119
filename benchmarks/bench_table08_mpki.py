"""Table VIII — LLC MPKI of every evaluated SPEC workload (1-core, LRU,
no prefetching).

Absolute MPKI depends on the substrate; the check is the *banding*: the
workloads the paper reports as low-MPKI measure low here, and the
high-MPKI ones measure high.
"""

from repro.analysis import format_table
from repro.harness import ExperimentSpec, run
from repro.workloads import SPEC_BENCHMARKS, spec_names

from common import emit, once


def _collect():
    out = {}
    for name in spec_names():
        res = run(ExperimentSpec.single(name, "lru", prefetch=False))
        out[name] = res.mpki()
    return out


def test_table08_mpki(benchmark):
    measured = once(benchmark, _collect)
    rows = []
    for name, mpki in measured.items():
        bench = SPEC_BENCHMARKS[name]
        rows.append([name, bench.pattern_class,
                     f"{bench.paper_mpki:.2f}", f"{mpki:.2f}"])
    emit("table08_mpki", "\n".join([
        "Table VIII - evaluated SPEC workloads: LLC MPKI "
        "(1-core, LRU, no prefetch)",
        format_table(["workload", "class", "MPKI (paper)", "MPKI (ours)"],
                     rows),
    ]))
    # Band preservation: rank correlation between paper and measured MPKI.
    names = list(measured)
    paper_rank = sorted(names, key=lambda n: SPEC_BENCHMARKS[n].paper_mpki)
    ours_rank = sorted(names, key=lambda n: measured[n])
    paper_pos = {n: i for i, n in enumerate(paper_rank)}
    ours_pos = {n: i for i, n in enumerate(ours_rank)}
    n = len(names)
    d2 = sum((paper_pos[x] - ours_pos[x]) ** 2 for x in names)
    spearman = 1 - 6 * d2 / (n * (n * n - 1))
    print(f"\nSpearman rank correlation paper-vs-ours: {spearman:.3f}")
    assert spearman > 0.6
