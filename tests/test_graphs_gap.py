"""Graph datasets (Table IX) and GAP algorithm trace emitters."""

import hashlib
import shutil
import sys
from array import array

import numpy as np
import pytest

from repro.workloads.gap import (
    NEIGHBORS_BASE,
    OFFSETS_BASE,
    bfs_records,
    cc_records,
    gap_algorithms,
    gap_trace,
    gap_workload_names,
    pagerank_records,
    sssp_records,
    bc_records,
)
from repro.workloads.graphs import (
    GRAPH_SPECS,
    CSRGraph,
    build_graph,
    graph_keys,
)


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------

def test_table9_graphs_exist():
    assert graph_keys() == ["or", "tw", "ur"]
    assert GRAPH_SPECS["or"].full_name == "orkut"
    assert GRAPH_SPECS["tw"].paper_vertices == "61.6M"


def test_graphs_validate_and_sizes_ordered():
    sizes = {}
    for key in graph_keys():
        g = build_graph(key)
        g.validate()
        sizes[key] = g.n_vertices
        assert g.n_edges > g.n_vertices          # connected-ish density
    assert sizes["or"] < sizes["tw"] < sizes["ur"]


def test_powerlaw_graphs_are_skewed_uniform_is_not():
    def degree_skew(g: CSRGraph) -> float:
        deg = np.diff(g.offsets)
        return float(deg.max() / max(1.0, deg.mean()))

    assert degree_skew(build_graph("tw")) > 3 * degree_skew(build_graph("ur"))


def test_graph_build_is_memoized_and_deterministic():
    a = build_graph("or")
    b = build_graph("or")
    assert a is b


def test_unknown_graph_rejected():
    with pytest.raises(KeyError):
        build_graph("zz")


@pytest.mark.parametrize("offsets,neighbors,weights,message", [
    ([1, 2, 2], [1, 0], [1, 1], "malformed offsets"),
    ([0, 2, 1, 2], [1, 0], [1, 1], "not monotone"),
    ([0, 1, 2], [1, 2], [1, 1], "out of range"),
    ([0, 1, 2], [1, 0], [1], "1 weights for 2 edges"),
])
def test_validate_rejects_a_malformed_graph(offsets, neighbors, weights,
                                            message):
    graph = CSRGraph("bad", array("I", offsets), array("H", neighbors),
                     array("B", weights))
    with pytest.raises(ValueError, match=message):
        graph.validate()


def test_out_neighbors_matches_offsets():
    g = build_graph("or")
    u = int(np.argmax(np.diff(g.offsets)))       # highest-degree vertex
    nbrs = g.out_neighbors(u)
    assert len(nbrs) == g.offsets[u + 1] - g.offsets[u]


# ----------------------------------------------------------------------
# Committed graph data
# ----------------------------------------------------------------------

@pytest.mark.parametrize("key", graph_keys())
def test_committed_graph_equals_the_reference_builder(key):
    """Each data file holds what ``tests/graph_reference.py`` builds with
    the installed numpy (see its docstring if this fails after an
    upgrade)."""
    from tests.graph_reference import reference_graph
    graph = build_graph(key)
    assert graph == reference_graph(key)
    assert [col.typecode for col in
            (graph.offsets, graph.neighbors, graph.weights)] == ["I", "H", "B"]


def test_a_changed_graph_byte_changes_both_fingerprints(tmp_path,
                                                        monkeypatch):
    """The result store and the trace cache are namespaced by hashes that
    cover the graph files, so a regenerated graph is never served a
    stale trace or result."""
    from repro import durable
    from repro.harness.store import code_fingerprint
    from repro.workloads.tracecache import workloads_fingerprint

    def fingerprints():
        durable.source_fingerprint.cache_clear()
        return code_fingerprint(), workloads_fingerprint()

    pkg = tmp_path / "repro"
    shutil.copytree(durable.PKG_ROOT, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        here = fingerprints()
        monkeypatch.setattr(durable, "PKG_ROOT", pkg)
        copied = fingerprints()
        data = pkg / "workloads" / "data" / "orkut.csr.gz"
        blob = bytearray(data.read_bytes())
        blob[len(blob) // 2] ^= 1
        data.write_bytes(bytes(blob))
        changed = fingerprints()
    finally:
        durable.source_fingerprint.cache_clear()
    assert copied == here
    assert changed[0] != copied[0] and changed[1] != copied[1]


def _column_digest(trace) -> str:
    digest = hashlib.sha256()
    for col in (trace.pc, trace.addr, trace.gap, trace.flags):
        if sys.byteorder != "little":
            col = array(col.typecode, col)
            col.byteswap()
        digest.update(col.tobytes())
    return digest.hexdigest()


#: sha256 of the four trace columns of every GAP workload at (records,
#: seed), as the numpy kernels and graph builders gave them before the
#: graphs became committed data (12,000 records is a 6,000-record
#: campaign point's trace: warmup plus measured)
GAP_TRACE_DIGESTS = {
    (12000, 3): {
        "bc-or": "152e4ebccd2c6f7a53b71debc28d1cb4974d9336a3c847ae6de90eba074c0e43",
        "bc-tw": "90c3545d8295f089e72c79bb3910e4fb4aacf7e1f7be447738b185675d23e4ad",
        "bc-ur": "e1d4ac3c2c2b755dcd1ce22ccb7e7b62aa6fbff358682b1c05ffb1b1fac8f7e6",
        "bfs-or": "9e99511b9e77ad89e263eb37b58b9e623f993a1a94226dc2fb44c5c02e673d27",
        "bfs-tw": "60e6417e8f644562d6ab246a64ee0022ac81e87d6b64e3993a8922cb58e7a7e2",
        "bfs-ur": "105e426540f93a5325306f27f60d179fac5a3b3eca2bee2a144fade28613284a",
        "cc-or": "0b9fc163c7cf42f015732fd95440bdcf029e439bc16c90145f08ba4f7084ff7e",
        "cc-tw": "20178bb5e681872fd4925cbd648ca26050ee2d72115307a0f8fcc0f52264eebb",
        "cc-ur": "bf2feeb5719892811033915b7fbaaa1a9b69620cefe16dd7f6b14a2709400e7c",
        "pr-or": "308929586944d73f0ac0a4accfaa0936402e3ee5fb105ab7d7151ada4b4d8d19",
        "pr-tw": "7da06f0fcda41291b6a39a315cc420dbf5a3827179389a1997dd8585c4699f82",
        "pr-ur": "ae28e70e1df37153e0d972b13c6c2f8a5da56ee70e986eeb83db4f583daed56a",
        "sssp-or": "c279e2837a7ab683e91d92267cd601375fa1b2de4c06d069efb45f87843746b2",
        "sssp-tw": "4be15deccb4f66891669a7d139e5a95701b450cb2bac04305d106677666eac61",
        "sssp-ur": "a16745e364614e48cccfed7b3ca3a3eedd780e70dbe0b4f74a30c21536fbd948",
    },
    (2500, 11): {
        "bc-or": "b9ff5830db94ba3020b1b719e408e293e502838e5c7492f674aff8cc0108b6a1",
        "bc-tw": "d9b9c86ace20b57134372ee20659d90d5145fa99e99811b3bac9dbb41890f2d3",
        "bc-ur": "11c89483b28e2c1919dffc1006def7461724721b4f15638cf942314e147445fd",
        "bfs-or": "0489235b86fc2f3aa9dc5c2272e429ab7dd8ecc106f3e321d3ff41683df1a20e",
        "bfs-tw": "641951675e29882c5c7a26472cb9b90f63fe05092f415fc13a724cbf615782e2",
        "bfs-ur": "35f8eb3f8939242a36cd23e7d1542b437d6bcfb56fb6f3b72862c5f5a50fd23c",
        "cc-or": "78b7104ed53cdfb14e4f990b1e82807cc5ff2026d43d30e47cc45782758a70a5",
        "cc-tw": "db71937d7134e25b7a817004e91aebae636dd6ae490fbe0a33665cbf9c8f225c",
        "cc-ur": "e6dfe95dbc19ae5853022f071a12bd368b9a4f60347b5ea7c4a218a4e1281658",
        "pr-or": "32619ae487d5adf47e0b1824d0f2ca90fed2502d400448927bd4661e4de02a06",
        "pr-tw": "f83d29405876387197dcd58d6746f5bc2d8b09848202fa02eb24b28868b60f17",
        "pr-ur": "16fb0a90e78008da0c180dad10d113756d1b301120e9c8e8b23a446f185a9bb5",
        "sssp-or": "21613161a112c3b9c5051d5719a4f936cea02d17aa62d85b7aca3bacc286f6b1",
        "sssp-tw": "cf873402430d2a28216e0014b6a57958a06303ae5c8343c253863b09ea043304",
        "sssp-ur": "a21a525b01141d162a8473a73872f81db066d642ddc7a54432aea291d52511c1",
    },
}


@pytest.mark.parametrize("records,seed", sorted(GAP_TRACE_DIGESTS))
def test_gap_traces_are_pinned(records, seed):
    got = {name: _column_digest(gap_trace(name, records, seed))
           for name in gap_workload_names()}
    assert got == GAP_TRACE_DIGESTS[(records, seed)]


# ----------------------------------------------------------------------
# Kernels compute correct results while tracing
# ----------------------------------------------------------------------

def line_graph(n=6):
    """0 -> 1 -> 2 -> ... -> n-1 (plus reverse edges)."""
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    src = np.array([e[0] for e in edges])
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = np.array([e[1] for e in edges])[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(src, minlength=n))
    weights = np.ones(len(dst), dtype=np.int64)
    g = CSRGraph("line", offsets, dst.astype(np.int64), weights)
    g.validate()
    return g


def test_bfs_records_and_depths():
    g = line_graph(5)
    records = list(bfs_records(g, source=0))
    assert records, "bfs must touch memory"
    # bfs on a line visits every vertex: depth writes = n-1
    writes = [r for r in records if r.is_write]
    assert len(writes) == 4


def test_sssp_relaxes_line_graph():
    g = line_graph(4)
    records = list(sssp_records(g, source=0))
    writes = [r for r in records if r.is_write]
    assert len(writes) >= 3      # dist updates propagate down the line
    # weights array must be read
    from repro.workloads.gap import WEIGHTS_BASE
    assert any(WEIGHTS_BASE <= r.addr < WEIGHTS_BASE + (1 << 30)
               for r in records)


def test_cc_converges_on_line_graph():
    g = line_graph(6)
    records = list(cc_records(g))
    assert records
    writes = [r for r in records if r.is_write]
    assert writes           # labels propagate


def test_pagerank_reads_offsets_and_neighbors():
    g = line_graph(4)
    records = list(pagerank_records(g, iterations=2))
    assert any(OFFSETS_BASE <= r.addr < OFFSETS_BASE + (1 << 30)
               for r in records)
    assert any(NEIGHBORS_BASE <= r.addr < NEIGHBORS_BASE + (1 << 30)
               for r in records)


def test_bc_has_forward_and_backward_phases():
    g = line_graph(5)
    records = list(bc_records(g, source=0))
    writes = [r for r in records if r.is_write]
    assert len(writes) >= 5   # depth + sigma writes + delta writes


# ----------------------------------------------------------------------
# Trace assembly
# ----------------------------------------------------------------------

def test_gap_workload_names_cover_5x3():
    names = gap_workload_names()
    assert len(names) == 15
    assert "bfs-or" in names and "pr-ur" in names
    assert gap_algorithms() == ["bc", "bfs", "cc", "pr", "sssp"]


@pytest.mark.parametrize("workload", ["bfs-or", "pr-tw", "sssp-ur"])
def test_gap_trace_exact_length(workload):
    t = gap_trace(workload, n_records=400, seed=1)
    assert len(t) == 400
    assert t.suite == "GAP"
    t.validate()


def test_gap_trace_deterministic():
    a = gap_trace("cc-or", 300, seed=2)
    b = gap_trace("cc-or", 300, seed=2)
    assert a.records == b.records


def test_gap_trace_seed_separates_address_space():
    a = gap_trace("bfs-or", 50, seed=1)
    b = gap_trace("bfs-or", 50, seed=2)
    assert (a.records[0].addr >> 36) != (b.records[0].addr >> 36)


def test_gap_trace_unknown_workload():
    with pytest.raises(KeyError):
        gap_trace("dfs-or", 10)
    with pytest.raises(KeyError):
        gap_trace("bfs-xx", 10)


def test_gap_pcs_are_stable_per_site():
    t = gap_trace("bfs-or", 2000, seed=1)
    pcs = {r.pc for r in t.records}
    assert len(pcs) <= 16     # a handful of access sites, stable PCs
