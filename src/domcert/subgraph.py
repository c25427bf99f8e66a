"""Induced-subgraph containment, H-freeness, and the order on forbidden sets.

The search is exhaustive backtracking, so a "no embedding" answer is a
certificate of freeness, not a heuristic miss. Pattern vertices are assigned
in order of descending pattern degree (ascending id on ties); each step's host
candidates are computed as one bitmask but still tried in ascending id, which
makes every returned embedding deterministic and therefore usable in golden
tests. Each step allows only the host vertices in its degree window (see
contains_induced), and a window smaller than its steps answers None unsearched;
neither cut changes the first complete assignment. induced_subgraph_brute is
the independent oracle; it shares no code and gets no such filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional, Sequence

from .graph_core import Graph


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex id -> host vertex id, mapping[p] = host."""

    mapping: tuple[int, ...]


def verify_embedding(host: Graph, pattern: Graph, embedding: Embedding) -> bool:
    """Injective m with N(m[p]) & image == m(N(p)) for all p: induced, as no graph has loops."""
    m = embedding.mapping
    image = set(m)
    if len(m) != pattern.n:
        return False
    if len(image) != len(m):
        return False
    if any(not 0 <= v < host.n for v in m):
        return False
    return all(host.adj[m[p]] & image == {m[q] for q in pattern.adj[p]} for p in range(pattern.n))


def contains_induced(host: Graph, pattern: Graph) -> Optional[Embedding]:
    """Find an induced copy of pattern in host, or None if there is none."""
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return Embedding(())
    step_of, need, links, below = _plan(pattern)
    # Degree window: an induced image of a pattern vertex of degree d has at
    # least d neighbours and pattern.n - 1 - d non-neighbours. The steps of one
    # degree take distinct vertices of its window: too small a window, no copy.
    degrees = [mask.bit_count() for mask in host.masks]
    slack = host.n - pattern.n
    window = {
        d: sum(1 << v for v, deg in enumerate(degrees) if d <= deg <= slack + d)
        for d in set(need)
    }
    if any(window[d].bit_count() < need.count(d) for d in window):
        return None
    found = _first_assignment(host.masks, [window[d] for d in need], links, below)
    return None if found is None else Embedding(tuple(found[s] for s in step_of))


@lru_cache(maxsize=256)
def _plan(pattern: Graph):
    """Step of each vertex; per step its degree, earlier-step links and bounds.

    links[s] pairs each earlier step q with 0 if their vertices are adjacent,
    else -1 (XOR with -1 complements a mask). below[j] holds each step i < j
    such that an automorphism fixing the vertices of steps before i maps step
    i's vertex to step j's: it maps an embedding with image(j) < image(i) to a
    lexicographically smaller one, so the bounds never change the result.
    """
    order = sorted(range(pattern.n), key=lambda p: (-pattern.masks[p].bit_count(), p))
    need = [pattern.masks[p].bit_count() for p in order]
    links = tuple(
        tuple((q, 0 if pattern.masks[p] >> order[q] & 1 else -1) for q in range(step))
        for step, p in enumerate(order)
    )
    full = (1 << pattern.n) - 1
    below: list[tuple[int, ...]] = [() for _ in order]
    for i, j in combinations(range(pattern.n), 2):
        if need[i] == need[j]:
            pins = [1 << p for p in order[:i]] + [1 << order[j]] + [full] * (len(order) - i - 1)
            if _first_assignment(pattern.masks, pins, links, [()] * len(order)) is not None:
                below[j] += (i,)
    step_of = tuple(order.index(p) for p in range(pattern.n))
    return step_of, tuple(need), links, tuple(below)


def _first_assignment(masks, allowed, links, below) -> Optional[list[int]]:
    """Lexicographically first assignment of host vertices to the steps, or None.

    Step s takes an unused vertex of allowed[s], adjacent or not to each earlier
    image as links[s] says, and above the images of the steps in below[s].
    """
    size = len(allowed)
    assignment = [0] * size
    pending = [0] * size
    used = [0] * size
    pending[0] = allowed[0]
    step = 0
    while True:
        cand = pending[step]
        if not cand:
            if step == 0:
                return None
            step -= 1
            continue
        low = cand & -cand
        pending[step] = cand ^ low
        assignment[step] = low.bit_length() - 1
        if step + 1 == size:
            return assignment
        step += 1
        used[step] = used[step - 1] | low
        cand = allowed[step] & ~used[step]
        for q, flip in links[step]:
            cand &= masks[assignment[q]] ^ flip
        for q in below[step]:
            cand &= -2 << assignment[q]
        pending[step] = cand


def induced_subgraph_brute(host: Graph, pattern: Graph) -> Optional[Embedding]:
    """Oracle twin of contains_induced: scan all vertex subsets and labelings.

    A subset whose induced degrees (read from adj) differ from the pattern's
    cannot hold an induced copy, so its labelings are skipped; the first
    embedding in (subset, permutation) lexicographic order is still returned.
    """
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return Embedding(())
    degrees = sorted(map(len, pattern.adj))
    for subset in combinations(range(host.n), pattern.n):
        if sorted(len(host.adj[v].intersection(subset)) for v in subset) != degrees:
            continue
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
    return all(any(contains_induced(h2, h1) is not None for h1 in first) for h2 in second)
