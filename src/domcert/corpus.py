"""Graph corpora: exhaustive small-graph enumeration and seeded random sampling.

The connected graphs on up to 8 vertices (one representative per isomorphism
class) ship as a packaged graph6 fixture. ``write_fixture`` regenerates it from
scratch (README gives the one-line command); the enumeration is independent of
the shipped file, so the test suite can cross-check counts.

Isomorph rejection uses a canonical labeling: equitable refinement on the
popcounts of neighbourhood masks ANDed with cell masks, then individualization,
skipping the children that an automorphism maps onto an explored sibling.
"""

from __future__ import annotations

import random
from importlib import resources
from typing import Iterable, Iterator, Optional, Sequence

from .graph_core import (
    Graph,
    _members,
    _Neighbourhoods,
    _parse_graph6,
    from_edge_list,
    is_connected,
    parse_graph6,
    to_graph6,
)
from .subgraph import _first_assignment, is_free

CORPUS_FILE = "connected_n_le_8.g6"
CORPUS_MAX_N = 8

# Connected graphs per vertex count, for validating enumeration and fixture.
EXPECTED_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

def _refine(graph: Graph, cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Equitable refinement: split cells by neighbor count into every cell,
    always by the first splitter that splits any. A splitter that splits no cell
    splits none of a finer partition either, so it is skipped while it is a cell.
    """
    masks = graph.masks
    stable: set[tuple[int, ...]] = set()
    while True:
        for splitter in cells:
            if splitter in stable:
                continue
            splitter_mask = 0
            for v in splitter:
                splitter_mask |= 1 << v
            new_cells: list[tuple[int, ...]] = []
            for cell in cells:
                if len(cell) > 1:
                    groups: dict[int, list[int]] = {}
                    for v in cell:
                        groups.setdefault((masks[v] & splitter_mask).bit_count(), []).append(v)
                    if len(groups) > 1:
                        new_cells.extend(tuple(groups[count]) for count in sorted(groups))
                        continue
                new_cells.append(cell)
            if len(new_cells) > len(cells):
                cells = new_cells
                break
            stable.add(splitter)
        else:
            return cells


def canonical_graph6(graph: Graph) -> str:
    """Label-independent graph6 string: equal iff the graphs are isomorphic.

    Minimum graph6 encoding over the leaves of the refinement plus
    individualization search tree. A child is skipped when an automorphism
    maps the refined cells of an explored sibling, in order, onto the child's
    own. Refinement commutes with automorphisms, so that automorphism maps the
    sibling's subtree onto the child's, leaf by leaf, and corresponding leaves
    relabel the graph to the same encoding: the minimum leaf, which is the
    result, is among those explored.
    """
    if graph.n == 0:
        return to_graph6(graph)
    best: Optional[str] = None

    def search(cells: list[tuple[int, ...]]) -> None:
        nonlocal best
        target = next((idx for idx, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [v for (v,) in cells]
            encoded = to_graph6(graph.relabel(order))
            if best is None or encoded < best:
                best = encoded
            return
        cell = cells[target]
        explored: list = []
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            child = _refine(graph, cells[:target] + [(v,), rest] + cells[target + 1:])
            if any(maps_onto(child) for maps_onto in explored):
                continue
            search(child)
            explored.append(_automorphism_test(graph.masks, child))

    search(_refine(graph, [tuple(range(graph.n))]))
    assert best is not None
    return best


def _automorphism_test(masks, cells: list[tuple[int, ...]]):
    """A test of whether an automorphism maps each of cells onto the cell at
    the same position of another partition.

    Each test is one exact search on the graph itself: the vertices of the
    singleton cells are the first steps, then those of the other cells, and
    each step is allowed the other partition's cell at its own cell's position.
    Steps link only to the earlier steps adjacent to them: every vertex is a
    step and the steps take distinct vertices, so an accepted assignment is a
    permutation that maps edges to edges, and therefore non-edges to non-edges.
    """
    sizes = [len(cell) for cell in cells]
    cell_order = sorted(range(len(cells)), key=lambda idx: sizes[idx] > 1)
    order = [v for idx in cell_order for v in cells[idx]]
    step_cell = [idx for idx in cell_order for _ in cells[idx]]
    links = [
        tuple((q, 0) for q in range(step) if masks[p] >> order[q] & 1)
        for step, p in enumerate(order)
    ]
    below = [()] * len(order)

    def maps_onto(other: list[tuple[int, ...]]) -> bool:
        if [len(cell) for cell in other] != sizes:
            return False
        cell_masks = [sum(1 << v for v in cell) for cell in other]
        allowed = [cell_masks[idx] for idx in step_cell]
        return _first_assignment(masks, allowed, links, below) is not None

    return maps_onto


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def enumerate_connected_graphs(max_n: int) -> dict[int, list[Graph]]:
    """All connected graphs with 1..max_n vertices, one per isomorphism class.

    Augmentation: every connected graph on n vertices is some connected graph
    on n-1 vertices plus a new vertex joined to a nonempty subset (delete any
    non-cut vertex, e.g. a spanning-tree leaf, to see this). Children are
    deduplicated by canonical label and returned canonically labeled, sorted
    by their graph6 string.
    """
    if max_n < 1:
        return {}
    result: dict[int, list[Graph]] = {1: [Graph(1, (frozenset(),))]}
    for n in range(2, max_n + 1):
        seen: set[str] = set()
        for parent in result[n - 1]:
            base_edges = parent.edges()
            for mask in range(1, 1 << (n - 1)):
                edges = base_edges + [
                    (i, n - 1) for i in range(n - 1) if mask >> i & 1
                ]
                seen.add(canonical_graph6(from_edge_list(n, edges)))
        result[n] = [parse_graph6(key) for key in sorted(seen)]
    return result


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, one per edge-subset, 2^(n(n-1)/2) total.

    Edge subset i is bit i of the counter, over the pairs u < v in
    lexicographic order. Equal neighbourhoods are one shared frozenset, taken
    by bitmask from one table for the whole enumeration.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shared = _Neighbourhoods()
    for mask in range(1 << len(pairs)):
        nbrs = [0] * n
        for i in _members(mask):
            u, v = pairs[i]
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        yield Graph(n, tuple(map(shared.__getitem__, nbrs)))


# ---------------------------------------------------------------------------
# Fixture I/O
# ---------------------------------------------------------------------------

def fixture_path():
    return resources.files("domcert").joinpath("data").joinpath(CORPUS_FILE)


def load_fixture_corpus() -> dict[int, list[Graph]]:
    """Parse the packaged corpus, grouped by vertex count.

    Equal neighbourhoods are one shared frozenset, through a bitmask-keyed
    table local to this call: with n <= 8 there are at most 256 of them, so the
    parsed corpus holds a few hundred sets instead of one per vertex.
    """
    grouped: dict[int, list[Graph]] = {}
    shared = _Neighbourhoods()
    for line in fixture_path().read_text().splitlines():
        line = line.strip()
        if line:
            graph = _parse_graph6(line, shared)
            grouped.setdefault(graph.n, []).append(graph)
    return grouped


def corpus_graphs(max_n: int = CORPUS_MAX_N) -> list[Graph]:
    """Flat list of the fixture graphs with at most max_n vertices."""
    grouped = load_fixture_corpus()
    return [g for n in sorted(grouped) if n <= max_n for g in grouped[n]]


def write_fixture(path, max_n: int = CORPUS_MAX_N) -> dict[int, int]:
    """Regenerate the corpus file; returns the per-size counts written."""
    grouped = enumerate_connected_graphs(max_n)
    lines = [to_graph6(g) for n in sorted(grouped) for g in grouped[n]]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return {n: len(graphs) for n, graphs in grouped.items()}


# ---------------------------------------------------------------------------
# Seeded random sampling
# ---------------------------------------------------------------------------

def erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    """One draw of G(n, p) using the supplied generator."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edge_list(n, edges)


def sample_free_connected(
    count: int,
    configs: Sequence[tuple[int, float]],
    patterns: Iterable[Graph],
    seed: int,
) -> list[Graph]:
    """Rejection-sample connected graphs free of all patterns.

    Draws cycle through the (n, p) configs; connectivity and freeness are
    rechecked on every draw, so the output is certified, not heuristic.
    Deterministic for a fixed seed and config sequence. Accepted graphs take
    their neighbourhoods from one bitmask-keyed table local to this call, so
    equal neighbourhoods are one shared frozenset.
    """
    pattern_list = list(patterns)
    rng = random.Random(seed)
    shared = _Neighbourhoods()
    out: list[Graph] = []
    attempts = 0
    limit = 4000 * max(count, 1)
    while len(out) < count:
        if attempts >= limit:
            raise RuntimeError(
                f"sampling stalled: {len(out)}/{count} accepted in {attempts} draws"
            )
        n, p = configs[attempts % len(configs)]
        attempts += 1
        graph = erdos_renyi(n, p, rng)
        if is_connected(graph) and is_free(graph, pattern_list):
            out.append(Graph(n, tuple(map(shared.__getitem__, graph.masks))))
    return out
