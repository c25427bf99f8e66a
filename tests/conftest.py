"""Shared strategies, hypothesis settings and the session's verify battery."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from domcert import corpus, verify
from domcert.graph_core import Graph, from_edge_list

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

# Connected graphs per vertex count, for validating enumeration and fixture.
EXPECTED_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def hypercube(d: int) -> Graph:
    """Q_d: the d-bit words, adjacent when they differ in one bit."""
    edges = [(u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1]
    return from_edge_list(1 << d, edges)


def kneser(n: int, k: int) -> Graph:
    """Kneser(n, k): the k-subsets of n elements, adjacent when disjoint."""
    subsets = [set(c) for c in combinations(range(n), k)]
    pairs = combinations(range(len(subsets)), 2)
    edges = [(i, j) for i, j in pairs if subsets[i].isdisjoint(subsets[j])]
    return from_edge_list(len(subsets), edges)


def circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    """C_n(jumps): u adjacent to u + j mod n for each jump j, all jumps below n/2."""
    return from_edge_list(n, [(u, (u + j) % n) for u in range(n) for j in jumps])


# Regular, vertex-transitive inputs within the CLI's vertex limit on which
# canonical labelling once ran past 30 s: each automorphism test backtracked.
SYMMETRIC_HARD = {
    "hypercube-5": hypercube(5),
    "kneser-7-3": kneser(7, 3),
    "kneser-10-2": kneser(10, 2),
    "circulant-50-1-7": circulant(50, (1, 7)),
}


def sparse_connected(n: int, rng: random.Random) -> Graph:
    """A random spanning tree plus n // 2 random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return from_edge_list(n, sorted(edges))


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    """Arbitrary simple graph with a uniform random edge subset."""
    n = draw(st.integers(min_n, max_n))
    pairs = _all_pairs(n)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [p for p, flag in zip(pairs, keep) if flag])


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    """Connected graph: a random spanning tree plus a random edge subset."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
    for pair in _all_pairs(n):
        if pair not in edges and draw(st.booleans()):
            edges.add(pair)
    return from_edge_list(n, sorted(edges))


def count_corpus_parses(patch) -> list:
    """Count the corpus parses made through either module's binding."""
    calls = []
    original = corpus.load_fixture_corpus

    def counted():
        calls.append(1)
        return original()

    patch.setattr(corpus, "load_fixture_corpus", counted)
    patch.setattr(verify, "load_fixture_corpus", counted)
    return calls


@pytest.fixture(scope="session")
def battery():
    """The full verify battery at the default seed, run once per session: its
    results in suite order and the number of corpus parses it made."""
    with pytest.MonkeyPatch.context() as patch:
        loads = count_corpus_parses(patch)
        results = verify.run_suites()
    return results, len(loads)
