"""Graph ingestion, validation, and distance structure.

Vertices are dense integers 0..n-1.  Graphs are finite, simple and connected;
disconnected input is a hard error because everything downstream (Perron
vector, local spectra, predistance polynomials) assumes a single component.

Hop distances come from one level-synchronous BFS per graph, from every
root at once, which also decides connectivity; only the distance table is
stored, and the distance matrices A_i and spheres are derived on demand.

Input formats:

* edge list -- one ``u v`` pair per line, whitespace separated, full-line
  ``#`` comments and blank lines allowed;
* graph6 -- the standard ASCII encoding with optional ``>>graph6<<`` header,
  supported for n < 2**18 (sparse6 is not supported).

A file holds one graph: graph6 data with more than one graph line is a
ParseError, not a silent read of the first graph.  ``Graph.from_edges``
reads only (u, v) pairs of integer ids, range-checks, rejects loops and
repeated edges and builds the adjacency with numpy, in one pass over all
the edges.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from ._util import readonly as _readonly
from .errors import DisconnectedError, LoopOrMultiEdgeError, ParseError

GRAPH6_HEADER = b">>graph6<<"


@dataclass(frozen=True)
class Graph:
    """Simple connected graph on vertices 0..n-1.

    ``edges`` holds each undirected edge once as a sorted pair; ``adjacency``
    is the dense symmetric 0/1 matrix as float64 (the spectral pipeline is
    dense O(n^3) anyway).  Instances are immutable after construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: np.ndarray

    @classmethod
    def from_edges(cls, n, edges):
        """The graph of the (u, v) ``edges``, a sequence of pairs or an (m, 2)
        array of integer ids, checked in one pass: the error is the first
        pair with an id outside 0..n-1, a loop or a repeat, else
        ``DisconnectedError`` if the graph is not connected."""
        if n < 1:
            raise ParseError("graph must have at least one vertex")
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            ids = np.array(edges) if len(edges) else np.empty((0, 2), dtype=np.int64)
        except ValueError:  # pairs mixed with longer tuples
            ids = np.empty(0)
        if ids.ndim != 2 or ids.shape[1] != 2:
            raise ParseError("edges must be (u, v) pairs")
        if ids.dtype.kind in "biu":  # bools read as 0 and 1, as Python reads them
            pairs = ids.astype(np.int64, copy=False)  # a uint64 past int64 wraps below 0
        elif all(isinstance(x, numbers.Integral) for e in edges for x in e):
            # numpy reads an id past int64 as a float or an object: it is
            # out of range, so read it as -1
            pairs = np.array([[x if 0 <= x < n else -1 for x in e] for e in edges],
                             dtype=np.int64)
        else:
            raise ParseError("vertex ids must be integers")
        lo, hi = np.sort(pairs, axis=1).T
        key = lo * n + hi  # exact for in-range pairs, which come first in order
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(len(key), dtype=bool)
        repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
        bad = (lo < 0) | (hi >= n) | (lo == hi) | repeat
        if bad.any():
            u, v = map(int, edges[bad.argmax()])
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise LoopOrMultiEdgeError(f"self-loop at vertex {u}")
            raise LoopOrMultiEdgeError(f"repeated edge {(min(u, v), max(u, v))}")
        lo, hi = lo[order], hi[order]
        a = np.zeros((n, n))
        a[lo, hi] = a[hi, lo] = 1.0
        g = cls(n=n, edges=tuple(zip(lo.tolist(), hi.tolist())), adjacency=_readonly(a))
        g.distances  # the connectivity check; g keeps the distances
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def distances(self) -> DistanceData:
        """Exact hop distances, by one BFS kept with the graph (a failed one
        keeps nothing), level-synchronous from every root at once: row u of
        ``frontier`` is the sphere of radius ``level`` around u, and one
        product with A per level gives the next, so the table costs D dense
        products.  Each product entry is a sum of nonnegative counts only
        compared with 0, so single precision is exact and halves the cost."""
        n = self.n
        adjacency = self.adjacency.astype(np.float32)
        dist = np.where(np.eye(n, dtype=bool), 0, -1)
        frontier = np.eye(n, dtype=np.float32)
        level = 0
        while True:
            reached = (frontier @ adjacency > 0) & (dist < 0)
            if not reached.any():
                break
            level += 1
            dist[reached] = level
            frontier = reached.astype(np.float32)
        if (dist < 0).any():
            raise DisconnectedError("graph must be connected")
        ecc = dist.max(axis=1)
        return DistanceData(dist=_readonly(dist), ecc=_readonly(ecc), diameter=int(ecc.max()))


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop distances and the derived distance partition.

    Only ``dist`` is stored: the distance matrices A_i and the spheres
    are derived from it on demand, so memory stays O(n^2) whatever D is.
    """

    dist: np.ndarray
    ecc: np.ndarray
    diameter: int

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def distance_data(g: Graph) -> DistanceData:
    """The hop distances of ``g``: ``g.distances``, whose BFS runs once per graph."""
    return g.distances


# --- parsing ---------------------------------------------------------------


def load_graph(data, fmt: str = "edgelist") -> Graph:
    """Parse a graph from bytes/str (read as UTF-8)/binary stream in the given format."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, str):
        data = data.encode("utf-8", errors="surrogatepass")
    if fmt == "edgelist":
        n, edges = parse_edgelist(data.decode("ascii", errors="replace"))
    elif fmt == "graph6":
        n, edges = parse_graph6(data)
    else:
        raise ValueError(f"unknown graph format: {fmt!r}")
    return Graph.from_edges(n, edges)


def read_graph_file(path, fmt: str | None = None) -> Graph:
    """Load a graph file; the format defaults by extension (.g6 or .graph6,
    in any case, -> graph6)."""
    if fmt is None:
        fmt = "graph6" if str(path).lower().endswith((".g6", ".graph6")) else "edgelist"
    with open(path, "rb") as fh:
        return load_graph(fh, fmt=fmt)


def parse_edgelist(text: str) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            if "_" in line:  # int() reads digit grouping: "0_3" as 3
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {raw!r}")
        if u == v:
            raise LoopOrMultiEdgeError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if not edges:
        raise ParseError("no edges found")
    present = {x for edge in edges for x in edge}
    n = max(present) + 1
    if len(present) != n:
        # a lazy scan: it stops after at most len(present) + 5 ids
        first = list(itertools.islice((x for x in range(n) if x not in present), 5))
        raise ParseError(f"vertex ids must be dense 0..{n - 1}; "
                         f"{n - len(present)} missing, the first {first}")
    return n, edges


def parse_graph6(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):].lstrip()
    if not data:
        raise ParseError("empty graph6 data")
    lines = len(data.splitlines())
    if lines > 1:
        raise ParseError(f"graph6 data has {lines} graph lines; one graph per file")

    def sixbits(b: int) -> int:
        if not (63 <= b <= 126):
            raise ParseError(f"invalid graph6 byte {b}")
        return b - 63

    first = sixbits(data[0])
    if first < 63:
        n, pos = first, 1
    else:
        # 126 -> 18-bit size in the next three bytes (n < 2**18)
        if len(data) < 4:
            raise ParseError("truncated graph6 size field")
        if data[1] == 126:
            raise ParseError("graph6 graphs with n >= 2**18 are not supported")
        n = (sixbits(data[1]) << 12) | (sixbits(data[2]) << 6) | sixbits(data[3])
        pos = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {nbytes} for n={n}"
        )
    bits = [(sixbits(b) >> k) & 1 for b in body for k in (5, 4, 3, 2, 1, 0)]
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return n, edges


def graph6_bytes(g: Graph) -> bytes:
    """Encode a graph in header-free graph6 (used by the fixture writer)."""
    n = g.n
    if n >= 2 ** 18:
        raise ValueError("graph6 encoding limited to n < 2**18")
    if n < 63:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    v, u = np.tril_indices(n, -1)  # the pairs u < v, column by column
    bits = np.zeros(-(-len(u) // 6) * 6, dtype=np.int64)
    bits[:len(u)] = g.adjacency[u, v] != 0
    body = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1)) + 63
    return head + body.astype(np.uint8).tobytes()
