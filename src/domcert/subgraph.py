"""Induced-subgraph containment, H-freeness, and the order on forbidden sets.

The search is exhaustive backtracking, so a "no embedding" answer is a
certificate of freeness, not a heuristic miss. Pattern vertices are assigned
in order of descending pattern degree (ascending id on ties) and host
candidates are tried in ascending id, which makes every returned embedding
deterministic and therefore usable in golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional, Sequence

from .errors import DisconnectedGraphError, PreconditionError
from .graph_core import Graph, bfs_layers, is_connected


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex id -> host vertex id, mapping[p] = host."""

    mapping: tuple[int, ...]


def verify_embedding(host: Graph, pattern: Graph, embedding: Embedding) -> bool:
    """Check injectivity and the induced condition edge by edge."""
    m = embedding.mapping
    if len(m) != pattern.n:
        return False
    if len(set(m)) != len(m):
        return False
    if any(not 0 <= v < host.n for v in m):
        return False
    for p, q in combinations(range(pattern.n), 2):
        if pattern.has_edge(p, q) != host.has_edge(m[p], m[q]):
            return False
    return True


def contains_induced(host: Graph, pattern: Graph) -> Optional[Embedding]:
    """Find an induced copy of pattern in host, or None if there is none."""
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return Embedding(())

    order = sorted(range(pattern.n), key=lambda p: (-pattern.degree(p), p))
    # Pattern neighbors/non-neighbors among already-assigned vertices, per step.
    earlier = [[] for _ in range(pattern.n)]
    for step, p in enumerate(order):
        for prev_step in range(step):
            q = order[prev_step]
            earlier[step].append((prev_step, pattern.has_edge(p, q)))

    assignment = [-1] * pattern.n  # by step index
    used = [False] * host.n

    def candidates_ok(step: int, v: int) -> bool:
        if host.degree(v) < pattern.degree(order[step]):
            return False
        for prev_step, need_edge in earlier[step]:
            if host.has_edge(assignment[prev_step], v) != need_edge:
                return False
        return True

    def search(step: int) -> bool:
        if step == pattern.n:
            return True
        for v in range(host.n):
            if not used[v] and candidates_ok(step, v):
                assignment[step] = v
                used[v] = True
                if search(step + 1):
                    return True
                used[v] = False
        assignment[step] = -1
        return False

    if not search(0):
        return None
    mapping = [0] * pattern.n
    for step, p in enumerate(order):
        mapping[p] = assignment[step]
    return Embedding(tuple(mapping))


def induced_subgraph_brute(host: Graph, pattern: Graph) -> Optional[Embedding]:
    """Oracle twin of contains_induced: scan all vertex subsets and labelings."""
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return Embedding(())
    for subset in combinations(range(host.n), pattern.n):
        for perm in permutations(subset):
            emb = Embedding(perm)
            if verify_embedding(host, pattern, emb):
                return emb
    return None


@dataclass(frozen=True)
class FreenessResult:
    """Outcome of an H-freeness test; truthy iff the graph is free."""

    free: bool
    violated_index: Optional[int] = None
    embedding: Optional[Embedding] = None

    def __bool__(self) -> bool:
        return self.free


def is_free(graph: Graph, patterns: Sequence[Graph]) -> FreenessResult:
    """True iff no pattern occurs induced; otherwise carries the first violation."""
    for index, pattern in enumerate(patterns):
        emb = contains_induced(graph, pattern)
        if emb is not None:
            return FreenessResult(False, index, emb)
    return FreenessResult(True)


def leq_relation(first: Sequence[Graph], second: Sequence[Graph]) -> bool:
    """Forbidden-set order: every member of second induced-contains some member of first.

    When it holds, every graph free of the first set is free of the second.
    """
    for h2 in second:
        if not any(contains_induced(h2, h1) is not None for h1 in first):
            return False
    return True


def bfs_depth_consistent_with_path_free(graph: Graph, m: int) -> bool:
    """Fast necessary condition for P_m-freeness: all eccentricities at most m-2.

    A shortest path is induced, so a P_m-free graph cannot have a BFS layer at
    index m-1 or beyond from any root. The converse fails (an induced path need
    not be a shortest path), so this is a one-sided pre-filter only.
    """
    if m < 2:
        raise PreconditionError(f"path order m must be >= 2, got {m}")
    if not is_connected(graph):
        raise DisconnectedGraphError("depth filter requires a connected graph")
    for v in range(graph.n):
        if bfs_layers(graph, v).depth >= m - 1:
            return False
    return True
