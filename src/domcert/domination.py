"""Dominating sets: exact computation, certificates, and set refinements."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import PreconditionError, SearchBudgetError
from .graph_core import Graph, _check_ids, _members, closed_neighborhood


@dataclass(frozen=True)
class GammaResult:
    """Domination number together with one witness of that size."""

    gamma: int
    witness: frozenset[int]


def is_dominating(graph: Graph, subset: Iterable[int]) -> bool:
    """True iff every vertex is in the subset or adjacent to it."""
    return len(closed_neighborhood(graph, subset)) == graph.n


def gamma_exact(graph: Graph, *, node_budget: Optional[int] = None) -> GammaResult:
    """Exact domination number by iterative-deepening branch and bound.

    Branches on the lowest-id undominated vertex; one of its closed neighbors
    must be in any dominating set, so the branching factor is its closed
    degree. Bitmasks keep the cover bookkeeping cheap, and an explicit stack
    replaces recursion, so the depth is not limited.

    With a node_budget, SearchBudgetError is raised once the search has
    visited more than that many nodes, summed over all deepening rounds.
    """
    n = graph.n
    if n == 0:
        raise PreconditionError("domination number of the empty graph is undefined")
    if node_budget is not None and node_budget < 0:
        raise PreconditionError(f"negative node budget {node_budget}")

    full = (1 << n) - 1
    closed_masks = [mask | 1 << v for v, mask in enumerate(graph.masks)]
    max_cover = max(mask.bit_count() for mask in closed_masks)
    nodes_left = -1 if node_budget is None else node_budget  # never 0 when negative
    for target in range(1, n + 1):
        stack = [(0, 0)]  # (covered, chosen), both as vertex masks
        while stack:
            if nodes_left == 0:
                raise SearchBudgetError(
                    f"domination search exceeded its budget of {node_budget} nodes"
                )
            nodes_left -= 1
            covered, chosen = stack.pop()
            if covered == full:
                return GammaResult(target, frozenset(_members(chosen)))
            uncovered = full & ~covered
            # Also ends a full selection: it still leaves a vertex uncovered.
            if (target - chosen.bit_count()) * max_cover < uncovered.bit_count():
                continue
            # Branch on the lowest undominated vertex's closed neighbors; push
            # them in descending id so they are tried in ascending id.
            branch = closed_masks[(uncovered & -uncovered).bit_length() - 1]
            while branch:
                u = branch.bit_length() - 1
                branch ^= 1 << u
                stack.append((covered | closed_masks[u], chosen | 1 << u))
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
    depends only on the inputs, never on iteration luck. A vertex is dropped
    iff the kept vertices and the candidates not yet visited dominate every
    target it dominates, which keeps the pass linear.
    """
    order = sorted(set(candidates), reverse=True)
    _check_ids(graph, order)
    target_set = set(targets)
    target_mask = sum(1 << t for t in target_set if 0 <= t < graph.n)
    closed = [(graph.masks[v] | 1 << v) & target_mask for v in order]
    rest = [0] * (len(order) + 1)  # rest[j]: the targets order[j:] dominate
    for j in range(len(order) - 1, -1, -1):
        rest[j] = rest[j + 1] | closed[j]
    if target_mask.bit_count() < len(target_set) or target_mask & ~rest[0]:
        raise PreconditionError("candidate set does not dominate the target set")
    kept: list[int] = []
    cover = 0
    for j, v in enumerate(order):
        if closed[j] & ~(cover | rest[j + 1]):
            kept.append(v)
            cover |= closed[j]
    return frozenset(kept)


def maximal_independent_subset(graph: Graph, pool: Iterable[int]) -> frozenset[int]:
    """Greedy ascending-id maximal independent subset of the pool."""
    order = sorted(set(pool))
    _check_ids(graph, order)
    chosen = 0
    for v in order:
        if not graph.masks[v] & chosen:
            chosen |= 1 << v
    return frozenset(_members(chosen))


def is_independent(graph: Graph, subset: Iterable[int]) -> bool:
    """True iff no two subset vertices are adjacent."""
    vs = set(subset)
    _check_ids(graph, vs)
    return all(graph.adj[v].isdisjoint(vs) for v in vs)


def private_neighbors(
    graph: Graph, dominators: frozenset[int], targets: Iterable[int]
) -> dict[int, int]:
    """For each dominator, its lowest-id private target.

    A private target of u is a target vertex dominated by u and by no other
    dominator. Minimality of the dominating set over the targets guarantees
    one exists for every dominator; absence means the precondition was broken,
    as does a target that no dominator covers.
    """
    order = sorted(dominators)
    _check_ids(graph, order)
    target_set = set(targets)
    target_mask = sum(1 << t for t in target_set if 0 <= t < graph.n)
    if target_mask.bit_count() < len(target_set):
        raise PreconditionError("target set has a vertex outside the graph")
    closed = [(graph.masks[u] | 1 << u) & target_mask for u in order]
    once = twice = 0  # targets dominated by at least one, at least two dominators
    for mask in closed:
        twice |= once & mask
        once |= mask
    if target_mask & ~once:
        raise PreconditionError("dominators do not dominate the target set")
    private: dict[int, int] = {}
    for u, mask in zip(order, closed):
        mine = mask & ~twice
        if not mine:
            raise PreconditionError(
                f"dominator {u} has no private target; the set is not minimal"
            )
        private[u] = (mine & -mine).bit_length() - 1
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
