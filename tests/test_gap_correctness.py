"""GAP kernels compute *correct* results (validated against networkx).

The trace generators are real algorithm implementations; these tests drain
each kernel and check its computed answer against networkx on the orkut
stand-in graph, so the traced address streams genuinely belong to the
algorithms the paper evaluates.
"""

import networkx as nx
import numpy as np
import pytest

from repro.workloads.gap import (
    bc_records,
    bfs_records,
    cc_records,
    pagerank_records,
    sssp_records,
)
from repro.workloads.graphs import build_graph


@pytest.fixture(scope="module")
def graph():
    return build_graph("or")


@pytest.fixture(scope="module")
def nx_graph(graph):
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.n_vertices))
    for u in range(graph.n_vertices):
        start, end = graph.offsets[u], graph.offsets[u + 1]
        for i in range(start, end):
            g.add_edge(u, int(graph.neighbors[i]),
                       weight=int(graph.weights[i]))
    return g


def drain(gen):
    for _ in gen:
        pass


def test_bfs_depths_match_networkx(graph, nx_graph):
    source = 0
    result = {}
    drain(bfs_records(graph, source, result=result))
    expected = nx.single_source_shortest_path_length(nx_graph, source)
    depth = result["depth"]
    for v in range(graph.n_vertices):
        if v in expected:
            assert depth[v] == expected[v], v
        else:
            assert depth[v] == -1, v


def test_sssp_distances_match_networkx(graph, nx_graph):
    source = 0
    result = {}
    drain(sssp_records(graph, source, result=result))
    expected = nx.single_source_dijkstra_path_length(nx_graph, source,
                                                     weight="weight")
    dist = result["dist"]
    inf = np.iinfo(np.int64).max
    for v in range(graph.n_vertices):
        if v in expected:
            assert dist[v] == expected[v], v
        else:
            assert dist[v] == inf, v


def test_cc_labels_match_weakly_connected_components(graph, nx_graph):
    result = {}
    drain(cc_records(graph, result=result))
    comp = result["comp"]
    # Two-direction hooking converges to the minimum vertex id per
    # weakly-connected component — exactly GAP cc's answer.
    for component in nx.weakly_connected_components(nx_graph):
        label = min(component)
        for v in component:
            assert comp[v] == label, v


def test_pagerank_conserves_mass_and_favors_hubs(graph, nx_graph):
    result = {}
    drain(pagerank_records(graph, iterations=15, result=result))
    rank = result["rank"]
    # Mass is conserved up to dangling leakage (vertices nobody references).
    assert 0.5 < sum(rank) <= 1.05
    # The most-referenced vertex (in-degree of the pull) must out-rank the
    # median vertex.
    refs = np.bincount(graph.neighbors, minlength=graph.n_vertices)
    hub = int(np.argmax(refs))
    median_vertex = int(np.argsort(refs)[len(refs) // 2])
    assert rank[hub] > rank[median_vertex]


def test_bc_sigma_counts_shortest_paths(graph, nx_graph):
    source = 0
    result = {}
    drain(bc_records(graph, source, result=result))
    sigma = result["sigma"]
    # sigma[v] must equal the number of shortest paths from the source.
    # Check a sample of reachable vertices against networkx.
    expected_paths = {}
    depths = nx.single_source_shortest_path_length(nx_graph, source)
    # networkx: count shortest paths via BFS predecessor DAG
    preds = nx.predecessor(nx_graph, source)
    counts = {source: 1}

    def count_paths(v):
        if v in counts:
            return counts[v]
        counts[v] = sum(count_paths(p) for p in preds.get(v, []))
        return counts[v]

    import sys
    sys.setrecursionlimit(100000)
    reachable = [v for v in depths if depths[v] > 0]
    for v in sorted(reachable)[:200]:
        assert sigma[v] == count_paths(v), v


def test_bc_delta_nonnegative(graph):
    result = {}
    drain(bc_records(graph, 3, result=result))
    assert all(d >= 0 for d in result["delta"])
