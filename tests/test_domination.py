"""Exact domination number and the minimal/maximal set reducers."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import connected_graphs, graphs
from domcert.corpus import corpus_graphs
from domcert.domination import (
    gamma_brute_force,
    gamma_exact,
    independence_number,
    is_dominating,
    is_independent,
    maximal_independent_subset,
    minimal_dominating_subset,
    private_neighbors,
)
from domcert.errors import GraphConstructionError, PreconditionError, SearchBudgetError
from domcert.graph_core import (
    closed_neighborhood,
    from_edge_list,
    gen_complete,
    gen_empty,
    gen_k_star,
    gen_path,
    gen_s_star,
)


def reference_alpha(graph):
    """Literal subset scan from the largest size down."""
    for size in range(graph.n, 0, -1):
        for subset in combinations(range(graph.n), size):
            if is_independent(graph, subset):
                return size
    return 0


def reference_is_independent(graph, subset):
    """Literal pairwise check: no two members are adjacent."""
    return not any(v in graph.adj[u] for u, v in combinations(sorted(set(subset)), 2))


def reference_minimal_dominating_subset(graph, candidates, targets):
    """The quadratic descending-id pass that the mask version replaced."""
    target_set = set(targets)
    current = set(candidates)
    if not target_set <= closed_neighborhood(graph, current):
        raise PreconditionError("candidate set does not dominate the target set")
    for v in sorted(current, reverse=True):
        trial = current - {v}
        if target_set <= closed_neighborhood(graph, trial):
            current = trial
    return frozenset(current)


def reference_private_neighbors(graph, dominators, targets):
    """The per-dominator frozenset scan that the mask version replaced."""
    target_set = set(targets)
    private = {}
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


def outcome(func, *args):
    """The result of the call, or the type and message of what it raised."""
    try:
        return func(*args)
    except PreconditionError as exc:
        return type(exc), str(exc)


@st.composite
def dominated_pairs(draw):
    """A graph, a candidate set and a subset of the targets it dominates."""
    g = draw(graphs(min_n=1, max_n=9))
    candidates = draw(st.sets(st.integers(0, g.n - 1)))
    reach = sorted(closed_neighborhood(g, candidates))
    targets = draw(st.sets(st.sampled_from(reach))) if reach else set()
    return g, candidates, targets


class TestGammaExact:
    def test_complete(self):
        assert gamma_exact(gen_complete(6)).gamma == 1

    def test_path_seven(self):
        assert gamma_exact(gen_path(7)).gamma == 3

    def test_pendant_clique_four(self):
        assert gamma_exact(gen_k_star(4)).gamma == 4

    def test_four_cycle(self):
        c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert gamma_exact(c4).gamma == 2

    def test_path_formula(self):
        for n in range(1, 16):
            assert gamma_exact(gen_path(n)).gamma == -(-n // 3)

    def test_empty_graph_rejected(self):
        with pytest.raises(PreconditionError):
            gamma_exact(gen_empty(0))
        with pytest.raises(PreconditionError):
            gamma_brute_force(gen_empty(0))

    def test_isolated_vertices(self):
        assert gamma_exact(gen_empty(4)).gamma == 4

    def test_golden_witnesses(self):
        # The witnesses gamma_exact returned before its bitmask rewrite.
        for n in range(1, 31):
            expected = {
                0: set(range(1, n, 3)),
                1: {0} | set(range(2, n, 3)),
                2: set(range(0, n, 3)),
            }[n % 3]
            assert gamma_exact(gen_path(n)).witness == expected, n
        for n in range(1, 9):
            assert gamma_exact(gen_k_star(n)).witness == set(range(n))
            assert gamma_exact(gen_s_star(n)).witness == set(range(1, n + 1))

    def test_long_path_needs_no_recursion(self):
        # The former recursive search hit Python's recursion limit here; with
        # the limit raised, it gave gamma 1034 and the witness digest below.
        result = gamma_exact(gen_path(3100))
        digest = hashlib.sha256(",".join(map(str, sorted(result.witness))).encode())
        assert result.gamma == 1034
        assert digest.hexdigest() == (
            "e3ba980a86779293e4b71a04927fb87197d4e9f8408a2efbb38c2b620c02d80b"
        )

    def test_node_budget_counts_every_visited_node(self):
        # The root, then the one child that dominates the single vertex.
        assert gamma_exact(gen_path(1), node_budget=2).gamma == 1
        with pytest.raises(SearchBudgetError, match="budget of 1 nodes"):
            gamma_exact(gen_path(1), node_budget=1)
        with pytest.raises(PreconditionError):
            gamma_exact(gen_path(1), node_budget=-1)

    def test_node_budget_spans_deepening_rounds(self):
        # Rounds 1 to 3 cut their root; round 4 visits the root and 4 choices.
        assert gamma_exact(gen_empty(4), node_budget=8).gamma == 4
        with pytest.raises(SearchBudgetError):
            gamma_exact(gen_empty(4), node_budget=7)

    @given(graphs(min_n=1, max_n=7))
    def test_ample_budget_changes_nothing(self, g):
        assert gamma_exact(g, node_budget=10_000) == gamma_exact(g)

    @given(graphs(min_n=1, max_n=7))
    def test_witness_is_minimum(self, g):
        result = gamma_exact(g)
        assert is_dominating(g, result.witness)
        assert len(result.witness) == result.gamma
        assert result.gamma == gamma_brute_force(g).gamma

    @given(connected_graphs(max_n=8))
    def test_witness_dominates_connected(self, g):
        result = gamma_exact(g)
        assert is_dominating(g, result.witness)


class TestIsDominating:
    def test_path_center(self):
        assert is_dominating(gen_path(3), {1})
        assert not is_dominating(gen_path(3), {0})

    def test_spider_middles(self):
        assert is_dominating(gen_s_star(3), {1, 2, 3})

    def test_empty_set_on_empty_graph(self):
        assert is_dominating(gen_empty(0), set())


class TestMinimalDominatingSubset:
    def test_path_drops_useless_end(self):
        p3 = gen_path(3)
        assert minimal_dominating_subset(p3, {0, 1}, {2}) == {1}

    def test_complete_keeps_lowest(self):
        k5 = gen_complete(5)
        assert minimal_dominating_subset(k5, range(5), range(5)) == {0}

    def test_spider_middles_all_needed(self):
        s3 = gen_s_star(3)
        assert minimal_dominating_subset(s3, {1, 2, 3}, {4, 5, 6}) == {1, 2, 3}

    def test_precondition_reported(self):
        with pytest.raises(PreconditionError, match="does not dominate"):
            minimal_dominating_subset(gen_path(4), {0}, {3})

    def test_empty_targets_empty_result(self):
        assert minimal_dominating_subset(gen_path(4), {0, 1}, set()) == frozenset()

    @given(connected_graphs(max_n=8))
    def test_inclusion_minimal(self, g):
        targets = set(range(g.n))
        reduced = minimal_dominating_subset(g, range(g.n), targets)
        assert is_dominating(g, reduced)
        for v in reduced:
            trial = set(reduced) - {v}
            covered = set()
            for u in trial:
                covered.add(u)
                covered |= g.adj[u]
            assert not targets <= covered

    @given(dominated_pairs())
    def test_matches_reference_pass(self, case):
        g, candidates, targets = case
        got = minimal_dominating_subset(g, candidates, targets)
        assert got == reference_minimal_dominating_subset(g, candidates, targets)


class TestIsIndependent:
    def test_matches_pairwise_reference_on_corpus(self):
        rng = random.Random(26)
        hosts = [g for g in corpus_graphs() if g.n <= 7]
        seen = set()
        for _ in range(20000):
            g = rng.choice(hosts)
            # Drawn with replacement, so members may repeat.
            subset = rng.choices(range(g.n), k=rng.randint(0, g.n))
            expected = reference_is_independent(g, subset)
            assert is_independent(g, subset) is expected
            seen.add(expected)
        assert seen == {True, False}


class TestMaximalIndependentSubset:
    def test_complete_singleton(self):
        assert maximal_independent_subset(gen_complete(5), range(5)) == {0}

    def test_edgeless_everything(self):
        assert maximal_independent_subset(gen_empty(4), range(4)) == {0, 1, 2, 3}

    def test_path_interior(self):
        assert maximal_independent_subset(gen_path(5), {1, 2, 3}) == {1, 3}

    @given(graphs(min_n=1, max_n=8))
    def test_independent_and_maximal(self, g):
        pool = set(range(g.n))
        chosen = maximal_independent_subset(g, pool)
        assert is_independent(g, chosen)
        for v in pool - chosen:
            assert any(u in g.adj[v] for u in chosen)


class TestPrivateNeighbors:
    def test_spider_tips(self):
        s3 = gen_s_star(3)
        assert private_neighbors(s3, frozenset({1, 2, 3}), {4, 5, 6}) == {1: 4, 2: 5, 3: 6}

    def test_lowest_id_tie_break(self):
        p3 = gen_path(3)
        assert private_neighbors(p3, frozenset({1}), {0, 2}) == {1: 0}

    def test_pendant_private(self):
        k3 = gen_k_star(3)
        assert private_neighbors(k3, frozenset({0}), {3}) == {0: 3}

    def test_missing_private_reported(self):
        # Both candidates cover the single target, so neither has it privately.
        p3 = gen_path(3)
        with pytest.raises(PreconditionError, match="no private"):
            private_neighbors(p3, frozenset({0, 2}), {1})

    def test_undominated_target_refused(self):
        # Refused before the private check: on P4 neither 0 nor 1 has a private
        # target among {0, 3}, and no dominator covers 3.
        with pytest.raises(PreconditionError, match="do not dominate"):
            private_neighbors(gen_path(3), frozenset({0}), {0, 2})
        with pytest.raises(PreconditionError, match="do not dominate"):
            private_neighbors(gen_path(4), frozenset({0, 1}), {0, 3})

    @given(connected_graphs(min_n=2, max_n=8))
    def test_privates_are_private(self, g):
        targets = set(range(g.n))
        reduced = minimal_dominating_subset(g, range(g.n), targets)
        mapping = private_neighbors(g, reduced, targets)
        for u, x in mapping.items():
            closed = set(g.adj[x]) | {x}
            assert closed & reduced == {u}

    def test_stray_target_never_private(self):
        # Refused, not dropped, and never read as vertex 2.
        with pytest.raises(PreconditionError, match="outside the graph"):
            private_neighbors(gen_path(3), frozenset({1}), {0, -1})

    @given(dominated_pairs())
    def test_matches_reference_scan(self, case):
        # Minimal dominators, and the raw candidates, which often lack a
        # private target: both routes must give the same map or error.
        g, candidates, targets = case
        minimal = minimal_dominating_subset(g, candidates, targets)
        for dominators in (minimal, frozenset(candidates)):
            assert outcome(private_neighbors, g, dominators, targets) == outcome(
                reference_private_neighbors, g, dominators, targets
            )


P3 = gen_path(3)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: maximal_independent_subset(P3, {-1, 0}), GraphConstructionError),
        (lambda: maximal_independent_subset(P3, {0, 5}), GraphConstructionError),
        (lambda: is_independent(P3, {-1, 1}), GraphConstructionError),
        (lambda: is_independent(P3, {1, 5}), GraphConstructionError),
        (lambda: minimal_dominating_subset(P3, {-1, 1}, {0}), GraphConstructionError),
        (lambda: minimal_dominating_subset(P3, {1, 5}, {0}), GraphConstructionError),
        (lambda: minimal_dominating_subset(P3, {1}, {-1}), PreconditionError),
        (lambda: minimal_dominating_subset(P3, {1}, {0, 5}), PreconditionError),
        (lambda: private_neighbors(P3, frozenset({-1}), {0}), GraphConstructionError),
        (lambda: private_neighbors(P3, frozenset({1, 5}), {0}), GraphConstructionError),
        (lambda: private_neighbors(P3, frozenset({1}), {5}), PreconditionError),
        (lambda: private_neighbors(P3, frozenset({1}), {0, 5}), PreconditionError),
    ],
)
def test_vertex_ids_outside_graph(call, error):
    # Ids are never read modulo n: -1 is not vertex 2, and 5 is no IndexError.
    match = r"vertex id -?\d+ outside \[0,3\)" if error is GraphConstructionError else None
    with pytest.raises(error, match=match):
        call()


class TestIndependenceNumber:
    def test_complete(self):
        assert independence_number(gen_complete(5)) == 1

    def test_edgeless(self):
        assert independence_number(gen_empty(4)) == 4

    def test_path(self):
        assert independence_number(gen_path(5)) == 3

    def test_extremes_up_to_twenty(self):
        for n in range(21):
            assert independence_number(gen_empty(n)) == n
        for n in range(1, 21):
            assert independence_number(gen_complete(n)) == 1

    def test_matches_reference_on_corpus(self):
        for g in (g for g in corpus_graphs() if g.n <= 7):
            assert independence_number(g) == reference_alpha(g)

    @given(graphs())
    def test_matches_reference(self, g):
        assert independence_number(g) == reference_alpha(g)

    def test_small_forces_small_gamma(self):
        # Independence number below k bounds the domination number by k-1.
        g = gen_complete(6)
        assert independence_number(g) < 2
        assert gamma_exact(g).gamma <= 1
