"""Graph ingestion, validation, and distance structure.

Vertices are dense integers 0..n-1.  Graphs are finite, simple and connected;
disconnected input is a hard error because everything downstream (Perron
vector, local spectra, predistance polynomials) assumes a single component.

Input formats:

* edge list -- one ``u v`` pair per line, whitespace separated, full-line
  ``#`` comments and blank lines allowed;
* graph6 -- the standard ASCII encoding with optional ``>>graph6<<`` header,
  supported for n < 2**18 (sparse6 is not supported).
"""

from __future__ import annotations

from collections import deque
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
    labels: tuple[str, ...] | None = None

    @classmethod
    def from_edges(cls, n, edges, labels=None, require_connected=True):
        if n < 1:
            raise ParseError("graph must have at least one vertex")
        seen = set()
        cleaned = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise LoopOrMultiEdgeError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise LoopOrMultiEdgeError(f"repeated edge {key}")
            seen.add(key)
            cleaned.append(key)
        cleaned.sort()
        a = np.zeros((n, n))
        for u, v in cleaned:
            a[u, v] = 1.0
            a[v, u] = 1.0
        g = cls(n=n, edges=tuple(cleaned), adjacency=_readonly(a), labels=labels)
        if require_connected and not g.is_connected():
            raise DisconnectedError("graph must be connected")
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, u: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[u])

    def adjacency_lists(self) -> list[np.ndarray]:
        return [self.neighbors(u) for u in range(self.n)]

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return bool(seen.all())

    def permuted(self, perm) -> "Graph":
        """Relabel vertices by ``perm`` (new id of old vertex u is perm[u])."""
        perm = list(perm)
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        return Graph.from_edges(self.n, edges)


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop distances and the derived distance partition.

    ``distance_matrices[i]`` is the 0/1 matrix of pairs at distance exactly i,
    so A_0 = I, A_1 = A and the stack sums to the all-ones matrix.
    Spheres and balls are derived from ``dist`` on demand.
    """

    dist: np.ndarray
    distance_matrices: tuple[np.ndarray, ...]
    ecc: np.ndarray
    diameter: int

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def sphere(self, u: int, i: int) -> np.ndarray:
        """Vertices at distance exactly i from u (empty beyond ecc[u])."""
        return np.flatnonzero(self.dist[u] == i)

    def ball(self, u: int, j: int) -> np.ndarray:
        """Vertices at distance at most j from u (all of V once j >= ecc[u])."""
        return np.flatnonzero(self.dist[u] <= j)


def distance_data(g: Graph) -> DistanceData:
    """BFS-exact distance data for a connected graph."""
    n = g.n
    adj = g.adjacency_lists()
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = dist[s, u]
            for v in adj[u]:
                if dist[s, v] < 0:
                    dist[s, v] = du + 1
                    queue.append(v)
    if (dist < 0).any():
        raise DisconnectedError("graph must be connected")
    ecc = dist.max(axis=1)
    diameter = int(ecc.max())
    mats = tuple(
        _readonly((dist == i).astype(float)) for i in range(diameter + 1)
    )
    return DistanceData(
        dist=_readonly(dist),
        distance_matrices=mats,
        ecc=_readonly(ecc),
        diameter=diameter,
    )


def degree_profile(g: Graph) -> tuple[np.ndarray, bool]:
    """Per-vertex degrees (row sums of A) and whether they are all equal."""
    degrees = g.adjacency.sum(axis=1).astype(np.int64)
    is_regular = bool((degrees == degrees[0]).all())
    return _readonly(degrees), is_regular


# --- parsing ---------------------------------------------------------------


def load_graph(data, fmt: str = "edgelist") -> Graph:
    """Parse a graph from bytes/str/binary stream in the given format."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, str):
        data = data.encode("ascii")
    if fmt == "edgelist":
        n, edges = parse_edgelist(data.decode("ascii", errors="replace"))
    elif fmt == "graph6":
        n, edges = parse_graph6(data)
    else:
        raise ValueError(f"unknown graph format: {fmt!r}")
    return Graph.from_edges(n, edges)


def read_graph_file(path, fmt: str | None = None) -> Graph:
    """Load a graph file; the format defaults by extension (.g6 -> graph6)."""
    if fmt is None:
        fmt = "graph6" if str(path).endswith((".g6", ".graph6")) else "edgelist"
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
    n = max(max(u, v) for u, v in edges) + 1
    present = set()
    for u, v in edges:
        present.add(u)
        present.add(v)
    if len(present) != n:
        missing = sorted(set(range(n)) - present)
        raise ParseError(f"vertex ids must be dense 0..{n - 1}; missing {missing}")
    return n, edges


def parse_graph6(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):].lstrip()
    if not data:
        raise ParseError("empty graph6 data")
    if b"\n" in data:
        data = data.splitlines()[0]

    def sixbits(b: int) -> int:
        if not (63 <= b <= 126):
            raise ParseError(f"invalid graph6 byte {b}")
        return b - 63

    pos = 0
    first = sixbits(data[0])
    if first < 63:
        n = first
        pos = 1
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
    bits = []
    for b in body:
        bits.extend((sixbits(b) >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
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
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.adjacency[u, v] else 0)
    while len(bits) % 6:
        bits.append(0)
    body = bytearray()
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        body.append(val + 63)
    return head + bytes(body)
