"""Core graph representation, graph6/edge-list I/O, BFS layers, and family generators.

Graphs are simple and undirected, with dense 0-based vertex ids. A ``Graph`` is
immutable after construction, so instances can be shared freely and used as
dict keys. It stores its order and one bitmask per vertex, ``Graph.masks``;
equality and hashing compare those. One rule: kernels read masks, checkers read
adj. Every search and construction kernel and the codecs run on the masks; the
frozensets ``Graph.adj`` are read only by the literal checkers and oracles. They
are derived from the masks through ``_members`` on first read, each taken from
one bounded table of recently used masks that every graph shares, so equal
neighbourhoods read together are one frozenset. ``LayerDecomposition`` keeps
BFS layers the same way, as one vertex mask per layer, and builds their
frozensets only when ``layers`` is first read; root selection reads only depths.

``Graph(n, adj)`` validates what a caller outside the package gives it. Every
builder in the package checks its own input, or makes masks that are
symmetric and loop-free by construction, and then builds through one
unvalidated constructor, ``_trusted_graph``: ``from_edge_list`` (and so the
generators), the graph6 decoder, and ``corpus``'s enumeration and sampling.

Text input, as the lines that ``_lines`` splits, is read in two stages by
``_staged``: the order from the graph6 size field or the edge-list header,
then, on request, the rest of the graph, so that a caller can refuse the order
before any later line is read.

Vertex sets throughout the library are plain ``frozenset[int]`` / ``set[int]``
values; there is no wrapper class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import compress, islice
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

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
    """Simple undirected graph on vertices 0..n-1, stored as neighbourhood bitmasks:
    bit u of masks[v] is set iff uv is an edge. Kernels read masks; adj, the
    same neighbourhoods as frozensets for the checkers, is derived from them
    through _members and the shared table _neighbourhood on first read.

    Graph(n, adj) checks that adj is in range, loop-free and symmetric, and
    stores its masks; the package's own builders, which check their input
    themselves, skip that check through _trusted_graph.
    """

    n: int
    masks: tuple[int, ...]

    def __init__(self, n: int, adj: Sequence[frozenset[int]]):
        if n < 0:
            raise GraphConstructionError(f"negative vertex count {n}")
        if len(adj) != n:
            raise GraphConstructionError(f"adjacency length {len(adj)} does not match n={n}")
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                if not 0 <= v < n:
                    raise GraphConstructionError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise GraphConstructionError(f"loop at vertex {u}")
                if u not in adj[v]:
                    raise GraphConstructionError(f"asymmetric edge {u}-{v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(sum(1 << u for u in nbrs) for nbrs in adj))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Open neighbourhoods as sets, derived from masks on first read."""
        return tuple(map(_neighbourhood, self.masks))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u, mask in enumerate(self.masks) for v in _members(mask) if u < v]


def _trusted_graph(masks: Sequence[int]) -> Graph:
    """The graph whose open neighbourhoods are masks. Not validated: masks must be
    symmetric and loop-free, with no bit at or past len(masks)."""
    graph = object.__new__(Graph)
    # Set one by one in field order, as Graph.__init__ does, so the instance
    # keeps its compact attribute storage (no materialised __dict__).
    object.__setattr__(graph, "n", len(masks))
    object.__setattr__(graph, "masks", tuple(masks))
    return graph


@dataclass(frozen=True)
class LayerDecomposition:
    """BFS layers from a root as vertex masks: bit v of masks[i], for i = 0..depth,
    is set iff v is at distance i."""

    masks: tuple[int, ...]

    @property
    def depth(self) -> int:
        """Index of the last nonempty layer (the root's eccentricity)."""
        return len(self.masks) - 1

    @cached_property
    def layers(self) -> tuple[frozenset[int], ...]:
        """The vertices at each distance as sets, built from masks on first read."""
        return tuple(frozenset(_members(mask)) for mask in self.masks)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from explicit edges, rejecting ids out of range, loops and duplicates."""
    if n < 0:
        raise GraphConstructionError(f"negative vertex count {n}")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"edge ({u},{v}) has an id outside [0,{n})")
        if u == v:
            raise GraphConstructionError(f"loop edge ({u},{v})")
        if masks[u] >> v & 1:
            raise GraphConstructionError(f"duplicate edge ({u},{v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return _trusted_graph(masks)


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (the ">>graph6<<" header is tolerated and stripped).

    Missing trailing body bytes are read as all-zero bits; extra bytes and
    nonzero padding bits are rejected.
    """
    return _parse_graph6(text)


_OUTSIDE_GRAPH6 = re.compile(r"[^?-~]")  # a character outside [63, 126]
_NONZERO_BYTE = re.compile(r"[^?]")  # a body byte with some bit set
# Body byte value -> offsets of its set bits within its 6-bit group, high bit first.
_BIT_OFFSETS = tuple(tuple(j for j in range(6) if val >> (5 - j) & 1) for val in range(64))


def _parse_graph6(text: str) -> Graph:
    """parse_graph6 for the package's own readers, whose calls perfbench's
    count of parse_graph6 calls leaves out."""
    s, n, offset = _decode_size(text)
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
    return _trusted_graph(masks)


def to_graph6(graph: Graph) -> str:
    """Encode a graph as a canonical-length graph6 string (no header, no newline)."""
    n = graph.n
    size = _encode_size(n)  # refuses an order past the graph6 range before any work
    # Column v holds bits u = 0..v-1 of masks[v], lowest first.
    bits = "".join(format(graph.masks[v] & ~(-1 << v), f"0{v}b")[::-1] for v in range(1, n))
    bits += "0" * (-len(bits) % 6)
    body = bytes(int(bits[i:i + 6], 2) + 63 for i in range(0, len(bits), 6))
    return (size + body).decode("ascii")


def _decode_size(text: str) -> tuple[str, int, int]:
    """A graph6 line stripped of whitespace and header, its order n and the offset
    of its body, after every check that reads no bit of the body."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6FormatError("empty graph6 string")
    bad = _OUTSIDE_GRAPH6.search(s)
    if bad:
        raise Graph6FormatError(f"character {bad.group()!r} outside graph6 range [63,126]")
    if s[0] != "~":
        return s, ord(s[0]) - 63, 1
    if len(s) < 4 or s[1] == "~":
        raise Graph6FormatError("unsupported or truncated graph6 size field")
    n = 0
    for c in s[1:4]:
        n = (n << 6) | (ord(c) - 63)
    return s, n, 4


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= _GRAPH6_MAX_N:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise Graph6FormatError(f"graph order {n} exceeds supported graph6 range")


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v"; '#' comments.
# ---------------------------------------------------------------------------

# A nonempty run of characters between the line boundaries of str.splitlines.
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def _lines(text: str) -> Iterator[str]:
    """The nonempty lines of text, split as by str.splitlines but found one at a
    time, so reading the first lines of a large input splits none of the rest."""
    return map(re.Match.group, _LINE.finditer(text))


def _int_pair(line: str, what: str, shape: str) -> tuple[int, int]:
    """The two integers of an edge-list line; `what` names the line in errors."""
    parts = line.split()
    if len(parts) != 2:
        raise EdgeListFormatError(f"{what} must be {shape!r}, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer {what} {line!r}") from exc


def _staged(texts: Iterator[str], fmt: str) -> tuple[int, Callable[[], Graph]]:
    """The order of the graph in texts, lines as _lines gives them, from its graph6
    size field or edge-list header, and a function that reads the rest; no line
    after the order's is taken before that call. The graph6 line is the first that
    is not all whitespace. A negative order, or one past graph6's, is refused."""
    if fmt == "graph6":
        line = next((text for text in texts if not text.isspace()), "")
        return _decode_size(line)[1], lambda: _parse_graph6(line)
    lines = (line for raw in texts if (line := raw.split("#", 1)[0].strip()))
    header = next(lines, None)
    if header is None:
        raise EdgeListFormatError("empty edge-list input")
    n, m = _int_pair(header, "header", "n m")
    if n < 0:
        raise EdgeListFormatError(f"negative vertex count {n}")
    if n > _GRAPH6_MAX_N:
        raise EdgeListFormatError(f"graph order {n} exceeds the graph6 limit of {_GRAPH6_MAX_N}")
    return n, lambda: _edge_list_body(lines, n, m)


def _edge_list_body(rest: Iterator[str], n: int, m: int) -> Graph:
    """The graph from the lines after an edge-list header of n and m, checked and
    read as parse_edge_list says."""
    most = n * (n - 1) // 2
    if not 0 <= m <= most:
        raise EdgeListFormatError(f"edge count {m} outside [0, {most}] for {n} vertices")
    lines = list(islice(rest, m + 1))
    if len(lines) != m:
        found = len(lines) if len(lines) < m else f"more than {m}"
        raise EdgeListFormatError(f"expected {m} edge lines, found {found}")
    edges = [_int_pair(line, "edge line", "u v") for line in lines]
    try:
        return from_edge_list(n, edges)
    except GraphConstructionError as exc:
        raise EdgeListFormatError(str(exc)) from exc


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format. A header edge count m outside
    [0, n(n-1)/2] is refused before any edge line is read, and at most one line
    past the m declared ones is read."""
    return _staged(_lines(text), "edgelist")[1]()


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


@lru_cache(maxsize=1 << 12)  # holds every mask on 12 or fewer vertices
def _neighbourhood(mask: int) -> frozenset[int]:
    """The vertices of mask as a set, one shared frozenset per recently used mask."""
    return frozenset(_members(mask))


def closed_neighborhood(graph: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """N[X]: the members of X together with all their neighbors."""
    members = frozenset(vertices)
    _check_ids(graph, members)
    return members.union(*(graph.adj[v] for v in members))


# The bits of a mask, bit 0 first, as 0/1 bytes: compress's selectors for masks.
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bfs_layers(graph: Graph, root: int) -> LayerDecomposition:
    """Distance layers from root; trailing empty layers are omitted."""
    _check_ids(graph, (root,))
    masks = graph.masks
    seen = frontier = 1 << root
    layers = [frontier]
    while True:
        # OR the neighbourhoods of the frontier's members, selected by its bits.
        flags = bin(frontier)[:1:-1].encode().translate(_BIT_FLAGS)
        frontier = reduce(or_, compress(masks, flags)) & ~seen
        if not frontier:
            return LayerDecomposition(tuple(layers))
        layers.append(frontier)
        seen |= frontier


def min_eccentricity_vertex(graph: Graph) -> int:
    """Vertex of minimum eccentricity (the depth of its BFS layers), lowest id on ties."""
    if graph.n == 0:
        raise DisconnectedGraphError("empty graph has no vertices")
    return min(range(graph.n), key=lambda v: bfs_layers(graph, v).depth)


def is_connected(graph: Graph) -> bool:
    """One BFS from vertex 0 reaches everything; the empty graph is not connected."""
    if graph.n == 0:
        return False
    return sum(mask.bit_count() for mask in bfs_layers(graph, 0).masks) == graph.n


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
    return from_edge_list(n, [])


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
