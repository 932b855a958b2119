"""Reference builders of the Table IX stand-in graphs, and the script that
writes their committed data files.

:func:`repro.workloads.graphs.build_graph` loads orkut, twitter and urand
from ``src/repro/workloads/data/``.  This module is how those files were
made: a Zipf-weighted (power-law) or uniform random edge list drawn from
numpy's ``Generator`` at seed 7, sorted into CSR with self-loops and
duplicate edges dropped, and a random weight in 1..15 per edge.
``tests/test_graphs_gap.py`` checks that each committed graph still equals
what these builders give under the installed numpy.  NumPy's RNG policy
(NEP 19) does not promise the same stream across versions, so if that
test fails after a numpy upgrade, the committed data (and every GAP trace
and result) stays as it is; rewrite the files only on purpose, with::

    PYTHONPATH=src python tests/graph_reference.py
"""

import gzip
from array import array

import numpy as np

from repro.workloads.graphs import (GRAPH_SPECS, CSRGraph, encode_graph,
                                    graph_keys, load_graph)

#: the only seed the committed graphs were built with
SEED = 7


def _csr_from_edges(name: str, n: int, src: np.ndarray, dst: np.ndarray,
                    rng: np.random.Generator) -> CSRGraph:
    """Sort an edge list into CSR, dropping self-loops and duplicates."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = src.astype(np.int64) * n + dst
    _, unique_idx = np.unique(key, return_index=True)
    src, dst = src[unique_idx], dst[unique_idx]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    counts = np.bincount(src, minlength=n)
    offsets[1:] = np.cumsum(counts)
    weights = rng.integers(1, 16, size=len(dst), dtype=np.int64)
    graph = CSRGraph(name=name, offsets=array("I", offsets.tolist()),
                     neighbors=array("H", dst.tolist()),
                     weights=array("B", weights.tolist()))
    graph.validate()
    return graph


def _powerlaw_graph(name: str, n: int, avg_degree: int, alpha: float,
                    seed: int) -> CSRGraph:
    """Hub-skewed graph: endpoints drawn from a Zipf(alpha) vertex weighting."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    prob = ranks ** (-alpha)
    prob /= prob.sum()
    perm = rng.permutation(n)             # decouple vertex id from popularity
    m = n * avg_degree
    src = perm[rng.choice(n, size=m, p=prob)]
    dst = perm[rng.choice(n, size=m, p=prob)]
    return _csr_from_edges(name, n, src, dst, rng)


def _uniform_graph(name: str, n: int, avg_degree: int, seed: int) -> CSRGraph:
    rng = np.random.default_rng(seed)
    m = n * avg_degree
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return _csr_from_edges(name, n, src, dst, rng)


def reference_graph(key: str) -> CSRGraph:
    """Build graph ``key`` from its :class:`GraphSpec` parameters."""
    spec = GRAPH_SPECS[key]
    if spec.alpha > 0:
        return _powerlaw_graph(spec.full_name, spec.vertices,
                               spec.avg_degree, spec.alpha, SEED)
    return _uniform_graph(spec.full_name, spec.vertices, spec.avg_degree,
                          SEED)


def main() -> None:
    for key in graph_keys():
        path = GRAPH_SPECS[key].path
        blob = encode_graph(reference_graph(key))
        path.write_bytes(gzip.compress(blob, compresslevel=9, mtime=0))
        graph = load_graph(path)
        print(f"{path.name}: {graph.n_vertices} vertices, {graph.n_edges} "
              f"edges, {path.stat().st_size} bytes")


if __name__ == "__main__":
    main()
