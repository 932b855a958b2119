"""GAP benchmark suite workloads: real algorithms emitting address traces.

The paper evaluates five GAP kernels — Betweenness Centrality (bc), Breadth
First Search (bfs), Connected Components (cc), PageRank (pr) and Single
Source Shortest Path (sssp) — traced with Pin on orkut/twitter/urand.  We
get the equivalent effect by *executing the algorithms* on the Table IX
stand-in graphs (:mod:`.graphs`) and emitting the memory accesses their CSR
array operations perform: offset reads, sequential neighbor-list walks, and
the random-indexed property-array reads/writes that make graph analytics
LLC-hostile.

Each access site uses its own fixed PC, so per-PC behavior is stable — the
property PC-signature schemes (and CARE) exploit.  Compute gaps between
accesses are small, matching the low arithmetic intensity of these kernels.

The kernels keep their property arrays in plain lists and read the
graph's typed columns directly, so generating a GAP trace never imports
numpy.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Iterator, List, Optional

from .graphs import CSRGraph, build_graph, graph_keys
from .trace import Trace, TraceRecord

ELEM = 8
#: sssp's distance to a vertex not (yet) reached: the largest int64
INF = 2**63 - 1

# Array base addresses: disjoint 1GB-aligned regions.
OFFSETS_BASE = 0x1_0000_0000
NEIGHBORS_BASE = 0x1_4000_0000
WEIGHTS_BASE = 0x1_8000_0000


def _prop_base(k: int) -> int:
    """Base address for the k-th per-vertex property array."""
    return 0x2_0000_0000 + k * 0x4000_0000


class _Tracer:
    """Emits one access per array-element touch, with a fixed PC per
    access site: as a :class:`TraceRecord`, or — given ``into`` — appended
    to that trace's columns (the call then returns ``None``)."""

    def __init__(self, pc_base: int, seed: int,
                 into: Optional[Trace] = None) -> None:
        self.pc_base = pc_base
        self.rng = random.Random(seed ^ 0x6A9)
        self.into = into
        if into is not None:
            self._add_pc, self._add_addr = into.pc.append, into.addr.append
            self._add_gap = into.gap.append
            self._add_flags = into.flags.append

    def _emit(self, site: int, addr: int,
              write: bool = False) -> Optional[TraceRecord]:
        pc = self.pc_base + 4 * site
        gap = self.rng.randrange(0, 4)
        if self.into is None:
            return TraceRecord(pc, addr, write, gap)
        self._add_pc(pc)
        self._add_addr(addr)
        self._add_gap(gap)
        self._add_flags(Trace.WRITE if write else 0)
        return None

    def offsets(self, idx: int, site: int = 0) -> Optional[TraceRecord]:
        return self._emit(site, OFFSETS_BASE + idx * ELEM)

    def neighbor(self, idx: int, site: int = 1) -> Optional[TraceRecord]:
        return self._emit(site, NEIGHBORS_BASE + idx * ELEM)

    def weight(self, idx: int, site: int = 2) -> Optional[TraceRecord]:
        return self._emit(site, WEIGHTS_BASE + idx * ELEM)

    def prop(self, array: int, idx: int, site: int,
             write: bool = False) -> Optional[TraceRecord]:
        return self._emit(site, _prop_base(array) + idx * ELEM, write)


# ----------------------------------------------------------------------
# Kernels.  Each is a generator of TraceRecord that *actually computes*
# its result on the CSR graph while tracing; with ``into``, it appends
# each access to that trace instead and yields ``None``.
# ----------------------------------------------------------------------

def bfs_records(graph: CSRGraph, source: int, seed: int = 0,
                result: dict = None, into: Optional[Trace] = None
                ) -> Iterator[Optional[TraceRecord]]:
    """Breadth-first search from ``source`` (direction: push).

    If ``result`` is supplied, ``result["depth"]`` holds the final depth
    array once the generator is exhausted (tests validate it against
    networkx).
    """
    t = _Tracer(0x50_0000, seed, into)
    offsets, neighbors = graph.offsets, graph.neighbors
    depth = [-1] * graph.n_vertices
    if result is not None:
        result["depth"] = depth
    depth[source] = 0
    frontier: List[int] = [source]
    level = 0
    while frontier:
        level += 1
        next_frontier: List[int] = []
        for u in frontier:
            yield t.offsets(u, site=0)
            yield t.offsets(u + 1, site=0)
            for i in range(offsets[u], offsets[u + 1]):
                yield t.neighbor(i, site=1)
                v = neighbors[i]
                yield t.prop(0, v, site=2)              # depth[v] read
                if depth[v] < 0:
                    depth[v] = level
                    yield t.prop(0, v, site=3, write=True)
                    next_frontier.append(v)
        frontier = next_frontier


def pagerank_records(graph: CSRGraph, iterations: int = 20,
                     seed: int = 0, result: dict = None,
                     into: Optional[Trace] = None
                     ) -> Iterator[Optional[TraceRecord]]:
    """Pull-style PageRank: each vertex gathers from its in-edges.

    (We treat the stored edges as in-edges for the pull, which is how GAP's
    pr kernel walks CSR.)
    """
    t = _Tracer(0x51_0000, seed, into)
    offsets, neighbors = graph.offsets, graph.neighbors
    n = graph.n_vertices
    rank = [1.0 / n] * n
    # Each vertex's rank is consumed once per adjacency list that names it,
    # so dividing by that reference count conserves rank mass (up to
    # dangling vertices nobody references).  A contribution is divided
    # out where it is read, not precomputed per iteration: an iteration
    # is 290k-840k accesses on these graphs, far longer than a trace, so
    # most of a precomputed array would never be read.
    degree = graph.ref_counts
    for _ in range(iterations):
        new_rank = [0.15 / n] * n
        for u in range(n):
            yield t.offsets(u, site=0)
            yield t.offsets(u + 1, site=0)
            acc = 0.0
            for i in range(offsets[u], offsets[u + 1]):
                yield t.neighbor(i, site=1)
                v = neighbors[i]
                yield t.prop(0, v, site=2)              # contrib[v] read
                acc += rank[v] / degree[v]
            new_rank[u] += 0.85 * acc
            yield t.prop(1, u, site=3, write=True)      # rank_next[u] write
        rank = new_rank
    if result is not None:
        result["rank"] = rank


def cc_records(graph: CSRGraph, seed: int = 0, result: dict = None,
               into: Optional[Trace] = None
               ) -> Iterator[Optional[TraceRecord]]:
    """Connected components by label propagation (Shiloach-Vishkin style)."""
    t = _Tracer(0x52_0000, seed, into)
    offsets, neighbors = graph.offsets, graph.neighbors
    n = graph.n_vertices
    comp = list(range(n))
    if result is not None:
        result["comp"] = comp
    changed = True
    while changed:
        changed = False
        for u in range(n):
            yield t.offsets(u, site=0)
            yield t.offsets(u + 1, site=0)
            yield t.prop(0, u, site=2)                  # comp[u] read
            cu = comp[u]
            for i in range(offsets[u], offsets[u + 1]):
                yield t.neighbor(i, site=1)
                v = neighbors[i]
                yield t.prop(0, v, site=3)              # comp[v] read
                if comp[v] < cu:
                    cu = comp[v]
                elif cu < comp[v]:
                    # hook in the other direction too: components are
                    # defined on the undirected view (GAP's cc)
                    comp[v] = cu
                    yield t.prop(0, v, site=5, write=True)
                    changed = True
            if cu < comp[u]:
                comp[u] = cu
                yield t.prop(0, u, site=4, write=True)
                changed = True


def sssp_records(graph: CSRGraph, source: int, seed: int = 0,
                 result: dict = None, into: Optional[Trace] = None
                 ) -> Iterator[Optional[TraceRecord]]:
    """Single-source shortest paths (Dijkstra with a binary heap).

    GAP uses delta-stepping; Dijkstra touches the same arrays (offsets,
    neighbors, weights, dist) with the same irregular reuse, which is what
    the cache sees.
    """
    t = _Tracer(0x53_0000, seed, into)
    offsets, neighbors, weights = graph.offsets, graph.neighbors, graph.weights
    dist = [INF] * graph.n_vertices
    dist[source] = 0
    if result is not None:
        result["dist"] = dist
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        yield t.prop(0, u, site=2)                      # dist[u] read
        if d > dist[u]:
            continue
        yield t.offsets(u, site=0)
        yield t.offsets(u + 1, site=0)
        for i in range(offsets[u], offsets[u + 1]):
            yield t.neighbor(i, site=1)
            yield t.weight(i, site=5)
            v = neighbors[i]
            nd = d + weights[i]
            yield t.prop(0, v, site=3)                  # dist[v] read
            if nd < dist[v]:
                dist[v] = nd
                yield t.prop(0, v, site=4, write=True)
                heapq.heappush(heap, (nd, v))


def bc_records(graph: CSRGraph, source: int, seed: int = 0,
               result: dict = None, into: Optional[Trace] = None
               ) -> Iterator[Optional[TraceRecord]]:
    """Betweenness centrality (Brandes, one source): forward BFS computing
    path counts, then dependency accumulation in reverse order."""
    t = _Tracer(0x54_0000, seed, into)
    offsets, neighbors = graph.offsets, graph.neighbors
    n = graph.n_vertices
    depth = [-1] * n
    sigma = [0] * n
    delta = [0.0] * n
    if result is not None:
        result["depth"] = depth
        result["sigma"] = sigma
        result["delta"] = delta
    depth[source] = 0
    sigma[source] = 1
    order: List[int] = []
    frontier = [source]
    level = 0
    while frontier:                                     # forward phase
        level += 1
        nxt: List[int] = []
        for u in frontier:
            order.append(u)
            yield t.offsets(u, site=0)
            yield t.offsets(u + 1, site=0)
            for i in range(offsets[u], offsets[u + 1]):
                yield t.neighbor(i, site=1)
                v = neighbors[i]
                yield t.prop(0, v, site=2)              # depth[v]
                if depth[v] < 0:
                    depth[v] = level
                    yield t.prop(0, v, site=3, write=True)
                    nxt.append(v)
                if depth[v] == level:
                    yield t.prop(1, v, site=4, write=True)  # sigma[v] +=
                    sigma[v] += sigma[u]
        frontier = nxt
    for u in reversed(order):                           # backward phase
        yield t.offsets(u, site=0)
        yield t.offsets(u + 1, site=0)
        for i in range(offsets[u], offsets[u + 1]):
            yield t.neighbor(i, site=1)
            v = neighbors[i]
            yield t.prop(0, v, site=5)                  # depth[v]
            if depth[v] == depth[u] + 1 and sigma[v] > 0:
                yield t.prop(1, v, site=6)              # sigma[v]
                yield t.prop(2, v, site=7)              # delta[v]
                delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
        yield t.prop(2, u, site=8, write=True)          # delta[u] write


_KERNELS = {
    "bc": bc_records,
    "bfs": bfs_records,
    "cc": cc_records,
    "pr": pagerank_records,
    "sssp": sssp_records,
}

#: requires a source vertex argument
_SOURCED = {"bc", "bfs", "sssp"}


def gap_algorithms() -> List[str]:
    return sorted(_KERNELS)


def gap_workload_names() -> List[str]:
    """The paper's 15 GAP workloads: '<alg>-<graph>' (Figs. 9, 12, 14)."""
    return [f"{alg}-{g}" for alg in gap_algorithms() for g in graph_keys()]


def gap_trace(workload: str, n_records: int = 20000, seed: int = 0) -> Trace:
    """Trace for a '<alg>-<graph>' GAP workload, exactly ``n_records`` long.

    If one kernel run finishes early (e.g. BFS exhausts its component) the
    kernel restarts from a new seeded source, mirroring the paper's replay
    of short traces.
    """
    try:
        alg, gkey = workload.split("-")
        kernel = _KERNELS[alg]
        graph = build_graph(gkey)
    except (ValueError, KeyError):
        raise KeyError(
            f"unknown GAP workload {workload!r}; known: {gap_workload_names()}"
        ) from None

    rng = random.Random(seed ^ 0x9A9)
    trace = Trace(workload, seed=seed, suite="GAP")
    attempt = 0
    while len(trace) < n_records:
        if alg in _SOURCED:
            source = rng.randrange(graph.n_vertices)
            gen = kernel(graph, source, seed=seed + attempt, into=trace)
        else:
            gen = kernel(graph, seed=seed + attempt, into=trace)
        # each step appends one access, so this stops at n_records
        for _ in itertools.islice(gen, n_records - len(trace)):
            pass
        attempt += 1
        if attempt > 64:
            raise RuntimeError(
                f"{workload}: kernel keeps terminating instantly; "
                "graph likely degenerate")
    # Shift the whole run into a seed-specific 4GB address-space slot so
    # multi-copy runs model separate processes with private graph copies.
    offset = ((seed * 2654435761) & 0x3F) << 36
    if offset:
        trace.shift(offset)
    return trace
