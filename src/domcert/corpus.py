"""Graph corpora: exhaustive small-graph enumeration and seeded random sampling.

The connected graphs on up to 8 vertices (one representative per isomorphism
class) ship as a packaged graph6 fixture. The corpus is one list sorted by
vertex count, the same from the enumeration through the file to the parsed
graphs; a ``verify`` battery parses it once and shares that list among its
suites. ``write_fixture`` regenerates the file from scratch (README gives the
one-line command); the enumeration is independent of the shipped file, so the
test suite can cross-check it.

Isomorph rejection uses a canonical labeling: equitable refinement on the
popcounts of neighbourhood masks ANDed with cell masks, then individualization,
skipping the children that an automorphism maps onto an explored sibling.
"""

from __future__ import annotations

import random
from collections import Counter
from importlib import resources
from typing import Iterable, Iterator, Sequence

from .errors import GraphConstructionError, PreconditionError
from .graph_core import (
    Graph,
    _members,
    _parse_graph6,
    _trusted_graph,
    from_edge_list,
    is_connected,
    parse_graph6,
    to_graph6,
)
from .subgraph import _first_assignment, is_free

CORPUS_FILE = "connected_n_le_8.g6"
CORPUS_MAX_N = 8


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

    def search(cells: list[tuple[int, ...]]) -> str:
        """The least leaf encoding below cells."""
        target = next((idx for idx, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            pos = {v: i for i, (v,) in enumerate(cells)}  # v is renamed to its cell's index
            masks = [sum(1 << pos[u] for u in _members(graph.masks[v])) for (v,) in cells]
            return to_graph6(_trusted_graph(masks))  # a relabelling of a valid graph is valid
        cell = cells[target]
        explored: list = []
        leaves = []
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            child = _refine(graph, cells[:target] + [(v,), rest] + cells[target + 1:])
            if any(maps_onto(child) for maps_onto in explored):
                continue
            leaves.append(search(child))
            explored.append(_automorphism_test(graph.masks, child))
        return min(leaves)

    return search(_refine(graph, [tuple(range(graph.n))]))


def _automorphism_test(masks, cells: list[tuple[int, ...]]):
    """A test of whether an automorphism maps each of cells onto the cell at
    the same position of another partition.

    Each test is one exact search on the graph itself, whose steps are its
    vertices, each allowed the other partition's cell at its own cell's position.
    Steps are related by the sparser of adjacency and non-adjacency, and each links
    only to the earlier steps related to it: the steps take distinct vertices, so
    an accepted assignment is a permutation that maps related pairs to related
    pairs, and therefore unrelated pairs to unrelated pairs. The singletons are
    the first steps, then the vertex related to the most steps so far, from the
    smaller cell, then the lower id, so that each step is bound by earlier ones.
    """
    # -1 when more than half of all pairs are edges: XOR with it complements a mask.
    flip = -1 if 2 * sum(map(int.bit_count, masks)) > len(masks) * (len(masks) - 1) else 0
    related = [mask ^ flip for mask in masks]
    sizes = [len(cell) for cell in cells]
    order = [cell[0] for cell in cells if len(cell) == 1]
    placed = sum(1 << v for v in order)
    # By cell size, then id: max takes the first of the most related vertices.
    rest = [v for _, v in sorted((len(cell), v) for cell in cells if len(cell) > 1 for v in cell)]
    while rest:
        v = max(rest, key=lambda u: (related[u] & placed).bit_count())
        rest.remove(v)
        order.append(v)
        placed |= 1 << v
    cell_index = {v: idx for idx, cell in enumerate(cells) for v in cell}
    step_cell = [cell_index[v] for v in order]
    links = [
        tuple((q, flip) for q in range(step) if related[p] >> order[q] & 1)
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

def enumerate_connected_graphs(max_n: int) -> list[Graph]:
    """All connected graphs with 1..max_n vertices, one per isomorphism class.

    Augmentation: every connected graph on n vertices is some connected graph
    on n-1 vertices plus a new vertex joined to a nonempty subset (delete any
    non-cut vertex, e.g. a spanning-tree leaf, to see this). Children are
    deduplicated by canonical label and returned canonically labeled, sorted
    by vertex count and then by graph6 string: the order of the fixture file.
    """
    if max_n < 1:
        return []
    level = [from_edge_list(1, [])]
    result = list(level)
    for n in range(2, max_n + 1):
        seen: set[str] = set()
        for parent in level:
            base_edges = parent.edges()
            for mask in range(1, 1 << (n - 1)):
                edges = base_edges + [
                    (i, n - 1) for i in range(n - 1) if mask >> i & 1
                ]
                seen.add(canonical_graph6(from_edge_list(n, edges)))
        level = [parse_graph6(key) for key in sorted(seen)]
        result += level
    return result


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, one per edge-subset, 2^(n(n-1)/2) total.

    Edge subset i is bit i of the counter, over the pairs u < v in
    lexicographic order. Each graph is built from its masks.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        nbrs = [0] * n
        for i in _members(mask):
            u, v = pairs[i]
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        yield _trusted_graph(nbrs)


# ---------------------------------------------------------------------------
# Fixture I/O
# ---------------------------------------------------------------------------

def fixture_path():
    return resources.files("domcert").joinpath("data").joinpath(CORPUS_FILE)


def load_fixture_corpus() -> list[Graph]:
    """Parse the packaged corpus, in file order: sorted by vertex count."""
    lines = fixture_path().read_text().splitlines()
    return [_parse_graph6(line) for line in lines if line.strip()]


def corpus_graphs() -> list[Graph]:
    """load_fixture_corpus(): perfbench times this name and counts calls to that one."""
    return load_fixture_corpus()


def write_fixture(path, max_n: int = CORPUS_MAX_N) -> dict[int, int]:
    """Regenerate the corpus file; returns the per-size counts written, by
    ascending vertex count."""
    graphs = enumerate_connected_graphs(max_n)
    with open(path, "w") as handle:
        handle.write("\n".join(map(to_graph6, graphs)) + "\n")
    return dict(Counter(g.n for g in graphs))


# ---------------------------------------------------------------------------
# Seeded random sampling
# ---------------------------------------------------------------------------

def erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    """One draw of G(n, p) using the supplied generator, one rng.random() per
    pair u < v in lexicographic order."""
    if n < 0:
        raise GraphConstructionError(f"negative vertex count {n}")
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return _trusted_graph(masks)


def sample_free_connected(
    count: int,
    configs: Sequence[tuple[int, float]],
    patterns: Iterable[Graph],
    seed: int,
) -> list[Graph]:
    """Rejection-sample connected graphs free of all patterns.

    Draws cycle through the (n, p) configs; connectivity and freeness are
    rechecked on every draw, so the output is certified, not heuristic.
    Deterministic for a fixed seed and config sequence.
    """
    if count > 0 and not configs:
        raise PreconditionError("sampling needs at least one (n, p) config")
    pattern_list = list(patterns)
    rng = random.Random(seed)
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
            out.append(graph)
    return out
