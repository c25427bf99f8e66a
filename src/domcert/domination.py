"""Dominating sets: exact computation, certificates, and set refinements."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import PreconditionError
from .graph_core import Graph, closed_neighborhood


@dataclass(frozen=True)
class GammaResult:
    """Domination number together with one witness of that size."""

    gamma: int
    witness: frozenset[int]


def is_dominating(graph: Graph, subset: Iterable[int]) -> bool:
    """True iff every vertex is in the subset or adjacent to it."""
    closed = closed_neighborhood(graph, subset)
    return len(closed) == graph.n


def gamma_exact(graph: Graph) -> GammaResult:
    """Exact domination number by iterative-deepening branch and bound.

    Branches on the lowest-id undominated vertex; one of its closed neighbors
    must be in any dominating set, so the branching factor is its closed
    degree. Bitmasks keep the cover bookkeeping cheap.
    """
    n = graph.n
    if n == 0:
        raise PreconditionError("domination number of the empty graph is undefined")

    full = (1 << n) - 1
    closed_masks = [mask | 1 << v for v, mask in enumerate(graph.masks)]
    max_cover = max(mask.bit_count() for mask in closed_masks)
    # Branch order at an undominated vertex: its closed neighbors, ascending.
    branches = [sorted(graph.adj[v] | {v}) for v in range(n)]

    def search(target: int, chosen: list[int], covered: int) -> Optional[list[int]]:
        if covered == full:
            return list(chosen)
        uncovered = full & ~covered
        # Also ends a full selection: it still leaves a vertex uncovered.
        if (target - len(chosen)) * max_cover < uncovered.bit_count():
            return None
        v = (uncovered & -uncovered).bit_length() - 1
        for u in branches[v]:
            chosen.append(u)
            found = search(target, chosen, covered | closed_masks[u])
            if found is not None:
                return found
            chosen.pop()
        return None

    for target in range(1, n + 1):
        found = search(target, [], 0)
        if found is not None:
            return GammaResult(target, frozenset(found))
    raise AssertionError("vertex set always dominates itself")


def gamma_brute_force(graph: Graph) -> GammaResult:
    """Oracle twin of gamma_exact: try subsets in ascending size, lex order."""
    if graph.n == 0:
        raise PreconditionError("domination number of the empty graph is undefined")
    for size in range(1, graph.n + 1):
        for subset in combinations(range(graph.n), size):
            if is_dominating(graph, subset):
                return GammaResult(size, frozenset(subset))
    raise AssertionError("vertex set always dominates itself")


def minimal_dominating_subset(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> frozenset[int]:
    """Prune candidates to an inclusion-minimal subset still dominating targets.

    One pass over candidates in descending id, dropping each vertex whose
    removal keeps domination, so low-id vertices survive ties. The result
    depends only on the inputs, never on iteration luck.
    """
    target_set = set(targets)
    current = set(candidates)
    if not target_set <= closed_neighborhood(graph, current):
        raise PreconditionError("candidate set does not dominate the target set")
    for v in sorted(current, reverse=True):
        trial = current - {v}
        if target_set <= closed_neighborhood(graph, trial):
            current = trial
    return frozenset(current)


def maximal_independent_subset(graph: Graph, pool: Iterable[int]) -> frozenset[int]:
    """Greedy ascending-id maximal independent subset of the pool."""
    chosen: set[int] = set()
    for v in sorted(set(pool)):
        if all(not graph.has_edge(v, u) for u in chosen):
            chosen.add(v)
    return frozenset(chosen)


def is_independent(graph: Graph, subset: Iterable[int]) -> bool:
    """True iff no two subset vertices are adjacent."""
    vs = sorted(set(subset))
    return all(
        not graph.has_edge(vs[i], vs[j])
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
    )


def private_neighbors(
    graph: Graph, dominators: frozenset[int], targets: Iterable[int]
) -> dict[int, int]:
    """For each dominator, its lowest-id private target.

    A private target of u is a target vertex dominated by u and by no other
    dominator. Minimality of the dominating set over the targets guarantees
    one exists for every dominator; absence means the precondition was broken.
    """
    target_set = set(targets)
    private: dict[int, int] = {}
    for u in sorted(dominators):
        others = dominators - {u}
        covered_by_others = closed_neighborhood(graph, others) if others else set()
        own = closed_neighborhood(graph, [u]) & target_set
        mine = sorted(own - covered_by_others)
        if not mine:
            raise PreconditionError(
                f"dominator {u} has no private target; the set is not minimal"
            )
        private[u] = mine[0]
    return private


def independence_number(graph: Graph) -> int:
    """Largest size of an independent set, by exact bitmask branch and bound.

    Branches on the lowest vertex v of the candidate pool: take v (removing its
    closed neighborhood from the pool) or drop it. A branch is cut when the
    chosen size plus the whole pool cannot beat the best size found so far.
    """
    masks = graph.masks
    best = 0
    stack = [((1 << graph.n) - 1, 0)]  # (pool, size chosen); no recursion depth limit
    while stack:
        pool, size = stack.pop()
        if not pool:
            best = max(best, size)
        elif size + pool.bit_count() > best:
            low = pool & -pool
            stack.append((pool ^ low, size))
            stack.append((pool & ~(masks[low.bit_length() - 1] | low), size + 1))
    return best
