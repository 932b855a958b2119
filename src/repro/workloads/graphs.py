"""The Table IX graph datasets (orkut/twitter/urand), as committed data.

The paper's GAP runs use orkut (3.1M vertices, social), twitter (61.6M,
social) and urand (134.2M, uniform random).  Graphs of that size are neither
available offline nor simulatable at Python speed, so the package ships
scaled synthetic stand-ins with the same *structural contrast* the paper
relies on:

* ``orkut``  — power-law social graph, moderate size, high average degree,
* ``twitter`` — larger, heavier-tailed power-law (hub-dominated),
* ``urand``  — largest, uniform random degree (no locality structure).

Scaled sizes keep the ratio "urand > twitter > orkut" and keep each graph's
property arrays larger than the scaled LLC, so graph property accesses are
LLC-resident-hostile exactly as in the paper.  Graphs are CSR (offsets +
neighbors), the representation whose array walks the GAP suite's memory
behavior comes from.

Like the paper's graphs, these are fixed datasets: each was built once by
a seeded builder (seed 7, numpy's ``Generator``; :class:`GraphSpec` holds
its parameters) and is committed under ``data/`` as ``<full_name>.csr.gz``
in the column-blob layout of :mod:`repro.workloads.io`, with u32 offsets,
u16 neighbors and u8 weights.  Loading one is a gzip read and one
``frombytes`` per column, with no numpy.  The builders live with the
tests (``tests/graph_reference.py``), which check that the files still
equal their output and rewrite the files when a graph changes on purpose.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from pathlib import Path
from typing import Dict, List, Sequence, Union

from .io import pack_columns, unpack_columns

#: the committed graph files
DATA_DIR = Path(__file__).resolve().parent / "data"

_MAGIC = b"RCSR"
_VERSION = 1
#: on-disk columns, in file order, with their typecodes
_COLUMNS = (("offsets", "I"), ("neighbors", "H"), ("weights", "B"))


@dataclass(frozen=True)
class CSRGraph:
    """Compressed sparse row directed graph with small edge weights."""

    name: str
    offsets: Sequence[int]      # [V+1]
    neighbors: Sequence[int]    # [E]
    weights: Sequence[int]      # [E], small positive ints (for sssp)

    @property
    def n_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_edges(self) -> int:
        return len(self.neighbors)

    @property
    def avg_degree(self) -> float:
        return self.n_edges / self.n_vertices if self.n_vertices else 0.0

    def out_neighbors(self, u: int) -> Sequence[int]:
        return self.neighbors[self.offsets[u]:self.offsets[u + 1]]

    @cached_property
    def ref_counts(self) -> List[int]:
        """How many adjacency lists name each vertex, at least 1:
        pagerank's divisor, counted once per graph."""
        counts = [0] * self.n_vertices
        for v in self.neighbors:
            counts[v] += 1
        return [max(c, 1) for c in counts]

    def validate(self) -> None:
        offsets = self.offsets
        if offsets[0] != 0 or offsets[-1] != self.n_edges:
            raise ValueError(f"{self.name}: malformed offsets")
        if len(self.weights) != self.n_edges:
            raise ValueError(f"{self.name}: {len(self.weights)} weights for "
                             f"{self.n_edges} edges")
        if any(a > b for a, b in zip(offsets, islice(offsets, 1, None))):
            raise ValueError(f"{self.name}: offsets not monotone")
        if self.n_edges and (min(self.neighbors) < 0
                             or max(self.neighbors) >= self.n_vertices):
            raise ValueError(f"{self.name}: neighbor id out of range")


def encode_graph(graph: CSRGraph) -> bytes:
    """``graph`` in the data-file layout, uncompressed (the files are
    this, gzipped)."""
    columns = [array(code, getattr(graph, name)) for name, code in _COLUMNS]
    header = {"name": graph.name,
              "columns": [[name, code, len(col)] for (name, code), col
                          in zip(_COLUMNS, columns)]}
    return pack_columns(_MAGIC, _VERSION, header, columns)


def load_graph(path: Union[str, Path]) -> CSRGraph:
    """Read and validate a graph file written from :func:`encode_graph`."""
    header, columns = unpack_columns(
        Path(path).read_bytes(), _MAGIC, _VERSION, path, "graph",
        lambda meta: [(code, n) for _name, code, n in meta["columns"]])
    names = [name for name, _code, _n in header["columns"]]
    graph = CSRGraph(header["name"], **dict(zip(names, columns)))
    graph.validate()
    return graph


@dataclass(frozen=True)
class GraphSpec:
    """Table IX row: paper-scale stats plus the scaled build parameters."""

    key: str                 # paper shorthand: or / tw / ur
    full_name: str
    paper_vertices: str      # as printed in Table IX
    paper_edges: str
    description: str
    vertices: int            # scaled size of the committed graph
    avg_degree: int
    alpha: float             # 0 = uniform

    @property
    def path(self) -> Path:
        return DATA_DIR / f"{self.full_name}.csr.gz"


GRAPH_SPECS: Dict[str, GraphSpec] = {
    "or": GraphSpec("or", "orkut", "3.1M", "117.2M", "Social network",
                    vertices=6000, avg_degree=24, alpha=0.7),
    "tw": GraphSpec("tw", "twitter", "61.6M", "1468.4M", "Social network",
                    vertices=12000, avg_degree=20, alpha=0.95),
    "ur": GraphSpec("ur", "urand", "134.2M", "2147.4M", "Synthetic",
                    vertices=24000, avg_degree=16, alpha=0.0),
}


def graph_keys() -> List[str]:
    return list(GRAPH_SPECS)


@lru_cache(maxsize=None)
def build_graph(key: str) -> CSRGraph:
    """Load (and memoize) one of the Table IX stand-in graphs."""
    try:
        spec = GRAPH_SPECS[key]
    except KeyError:
        raise KeyError(f"unknown graph {key!r}; known: {graph_keys()}") from None
    return load_graph(spec.path)
