"""Core graph representation, graph6/edge-list I/O, BFS layers, and family generators.

Graphs are simple and undirected, with dense 0-based vertex ids. A ``Graph`` is
immutable after construction, so instances can be shared freely and used as
dict keys. One rule: kernels read masks, checkers read adj. Every search and
construction kernel runs on the bitmasks ``Graph.masks``; the frozensets
``Graph.adj`` are read only by validation and equality, the codecs, the small
``Graph`` methods and the literal checkers and oracles.

Vertex sets throughout the library are plain ``frozenset[int]`` / ``set[int]``
values; there is no wrapper class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DisconnectedGraphError,
    EdgeListFormatError,
    Graph6FormatError,
    GraphConstructionError,
)

GRAPH6_HEADER = ">>graph6<<"

# Largest n representable by the 4-byte graph6 size form (single byte covers n <= 62).
_GRAPH6_MAX_N = 258047


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with frozen adjacency sets."""

    n: int
    adj: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphConstructionError(f"negative vertex count {self.n}")
        if len(self.adj) != self.n:
            raise GraphConstructionError(
                f"adjacency length {len(self.adj)} does not match n={self.n}"
            )
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise GraphConstructionError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise GraphConstructionError(f"loop at vertex {u}")
                if u not in self.adj[v]:
                    raise GraphConstructionError(f"asymmetric edge {u}-{v}")

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Open neighbourhoods as bitmasks: bit u of masks[v] is set iff uv is an edge."""
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees in non-increasing order."""
        return tuple(sorted((len(nbrs) for nbrs in self.adj), reverse=True))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertices, relabeled 0..k-1 in sorted order."""
        order = sorted(set(vertices))
        index = {v: i for i, v in enumerate(order)}
        adj = [frozenset(index[w] for w in self.adj[v] if w in index) for v in order]
        return Graph(len(order), tuple(adj))

    def relabel(self, order: Sequence[int]) -> "Graph":
        """Graph with vertex order[i] renamed to i; order must be a permutation."""
        index = {v: i for i, v in enumerate(order)}
        if len(index) != self.n:
            raise GraphConstructionError("relabel order is not a permutation")
        adj = [frozenset()] * self.n
        for v, i in index.items():
            adj[i] = frozenset(index[w] for w in self.adj[v])
        return Graph(self.n, tuple(adj))


@dataclass(frozen=True)
class LayerDecomposition:
    """BFS layers from a root: layers[i] holds the vertices at distance exactly i."""

    root: int
    layers: tuple[frozenset[int], ...]

    def layer(self, i: int) -> frozenset[int]:
        """Layer i, empty beyond the last nonempty one."""
        if 0 <= i < len(self.layers):
            return self.layers[i]
        return frozenset()

    @property
    def depth(self) -> int:
        """Index of the last nonempty layer (the root's eccentricity)."""
        return len(self.layers) - 1


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from explicit edges, rejecting loops and duplicates."""
    if n < 0:
        raise GraphConstructionError(f"negative vertex count {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"edge ({u},{v}) has an id outside [0,{n})")
        if u == v:
            raise GraphConstructionError(f"loop edge ({u},{v})")
        if v in adj[u]:
            raise GraphConstructionError(f"duplicate edge ({u},{v})")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(frozenset(s) for s in adj))


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (the ">>graph6<<" header is tolerated and stripped).

    Missing trailing body bytes are read as all-zero bits; extra bytes and
    nonzero padding bits are rejected.
    """
    return _parse_graph6(text, _Neighbourhoods())


class _Neighbourhoods(dict):
    """Neighbourhood frozensets by bitmask, each made on its first lookup."""

    def __missing__(self, mask: int) -> frozenset[int]:
        return self.setdefault(mask, frozenset(_members(mask)))


_OUTSIDE_GRAPH6 = re.compile(r"[^?-~]")  # a character outside [63, 126]
_NONZERO_BYTE = re.compile(r"[^?]")  # a body byte with some bit set
# Body byte value -> offsets of its set bits within its 6-bit group, high bit first.
_BIT_OFFSETS = tuple(tuple(j for j in range(6) if val >> (5 - j) & 1) for val in range(64))


def _parse_graph6(text: str, shared: _Neighbourhoods) -> Graph:
    """parse_graph6 that takes each neighbourhood from shared by its bitmask: one
    table kept across many calls makes equal neighbourhoods one frozenset."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6FormatError("empty graph6 string")
    bad = _OUTSIDE_GRAPH6.search(s)
    if bad:
        raise Graph6FormatError(f"character {bad.group()!r} outside graph6 range [63,126]")
    n, offset = _decode_size(s)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - offset > nbytes:
        raise Graph6FormatError(
            f"trailing garbage: {len(s) - offset} body bytes where at most {nbytes} expected"
        )
    # Visit nonzero bytes only; body bit k (high bit first) is u < v with
    # k = v(v-1)/2 + u, and k only grows, so column v only moves forward.
    masks = [0] * n
    v, start = 1, 0  # start = v(v-1)/2, the first k of column v
    for byte in _NONZERO_BYTE.finditer(s, offset):
        i = byte.start()
        for j in _BIT_OFFSETS[ord(s[i]) - 63]:
            k = 6 * (i - offset) + j
            if k >= nbits:
                raise Graph6FormatError("nonzero padding bits")
            while k >= start + v:
                start += v
                v += 1
            u = k - start
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return Graph(n, tuple(map(shared.__getitem__, masks)))


def to_graph6(graph: Graph) -> str:
    """Encode a graph as a canonical-length graph6 string (no header, no newline)."""
    n = graph.n
    size = _encode_size(n)  # refuses an order past the graph6 range before any work
    bits = "".join("1" if u in graph.adj[v] else "0" for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    body = bytes(int(bits[i:i + 6], 2) + 63 for i in range(0, len(bits), 6))
    return (size + body).decode("ascii")


def _decode_size(s: str) -> tuple[int, int]:
    """The order n of a graph6 string and the offset of its body."""
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if len(s) < 4 or s[1] == "~":
        raise Graph6FormatError("unsupported or truncated graph6 size field")
    n = 0
    for c in s[1:4]:
        n = (n << 6) | (ord(c) - 63)
    return n, 4


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= _GRAPH6_MAX_N:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise Graph6FormatError(f"graph order {n} exceeds supported graph6 range")


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v"; '#' comments.
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise EdgeListFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer header {lines[0]!r}") from exc
    # The graph6 limit, so both formats accept the same orders; checked before
    # any vertex is built.
    if n > _GRAPH6_MAX_N:
        raise EdgeListFormatError(f"graph order {n} exceeds the graph6 limit of {_GRAPH6_MAX_N}")
    if len(lines) - 1 != m:
        raise EdgeListFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"edge line must be 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeListFormatError(f"non-integer edge line {line!r}") from exc
    try:
        return from_edge_list(n, edges)
    except GraphConstructionError as exc:
        raise EdgeListFormatError(str(exc)) from exc


def to_edge_list(graph: Graph) -> str:
    """Serialize a graph in the edge-list text format."""
    edges = graph.edges()
    lines = [f"{graph.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Neighborhoods and BFS
# ---------------------------------------------------------------------------

def _check_ids(graph: Graph, vertices: Iterable[int]) -> None:
    """Reject any vertex id outside the graph."""
    for v in vertices:
        if not 0 <= v < graph.n:
            raise GraphConstructionError(f"vertex id {v} outside [0,{graph.n})")


def _members(mask: int) -> list[int]:
    """The vertices whose bits are set in mask, ascending."""
    bits = bin(mask)[:1:-1]  # bit 0 first, without the "0b" prefix
    out = []
    v = bits.find("1")
    while v >= 0:
        out.append(v)
        v = bits.find("1", v + 1)
    return out


def closed_neighborhood(graph: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """N[X]: the members of X together with all their neighbors."""
    members = frozenset(vertices)
    _check_ids(graph, members)
    return members.union(*(graph.adj[v] for v in members))


def bfs_layers(graph: Graph, root: int) -> LayerDecomposition:
    """Distance layers from root; trailing empty layers are omitted."""
    _check_ids(graph, (root,))
    masks = graph.masks
    seen = 1 << root
    layers = [frozenset((root,))]
    while True:
        reach = 0
        for v in layers[-1]:
            reach |= masks[v]
        frontier = reach & ~seen
        if not frontier:
            return LayerDecomposition(root, tuple(layers))
        layers.append(frozenset(_members(frontier)))
        seen |= frontier


def eccentricity(graph: Graph, v: int) -> int:
    """Maximum distance from v within its component."""
    return bfs_layers(graph, v).depth


def min_eccentricity_vertex(graph: Graph) -> int:
    """Vertex of minimum eccentricity, lowest id on ties."""
    if graph.n == 0:
        raise DisconnectedGraphError("empty graph has no vertices")
    return min(range(graph.n), key=lambda v: eccentricity(graph, v))


def is_connected(graph: Graph) -> bool:
    """One BFS from vertex 0 reaches everything; the empty graph is not connected."""
    if graph.n == 0:
        return False
    return sum(map(len, bfs_layers(graph, 0).layers)) == graph.n


# ---------------------------------------------------------------------------
# Family generators. Labelings are fixed so tests can address named vertices:
#   K*_n: clique x_1..x_n at ids 0..n-1, pendant y_i at id n-1+i.
#   S*_n: center x at id 0, middle y_i at id i, tip z_i at id n+i.
# ---------------------------------------------------------------------------

def _require_positive(n: int, family: str) -> None:
    if n < 1:
        raise GraphConstructionError(f"{family} requires n >= 1, got {n}")


def gen_path(n: int) -> Graph:
    """Path P_n with ids 0..n-1 along the path."""
    _require_positive(n, "gen_path")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def gen_complete(n: int) -> Graph:
    """Complete graph K_n."""
    _require_positive(n, "gen_complete")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gen_empty(n: int) -> Graph:
    """Edgeless graph on n vertices (n = 0 allowed)."""
    if n < 0:
        raise GraphConstructionError(f"gen_empty requires n >= 0, got {n}")
    return Graph(n, tuple(frozenset() for _ in range(n)))


def gen_k_star(n: int) -> Graph:
    """K*_n: an n-clique with one pendant vertex attached to each clique vertex."""
    _require_positive(n, "gen_k_star")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges.extend((i, n + i) for i in range(n))
    return from_edge_list(2 * n, edges)


def gen_s_star(n: int) -> Graph:
    """S*_n: a spider with n legs of length two hanging off a central vertex."""
    _require_positive(n, "gen_s_star")
    edges = [(0, i) for i in range(1, n + 1)]
    edges.extend((i, n + i) for i in range(1, n + 1))
    return from_edge_list(2 * n + 1, edges)
