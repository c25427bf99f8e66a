"""Ramsey table, recursive bounds, layered construction, witness extraction."""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, strategies as st

from conftest import connected_graphs, graphs, sparse_connected
from domcert.bound_engine import (
    BoundReport,
    _layer_stages,
    _pigeonhole,
    construct_dominating_set,
    dominate_layer,
    extract_forbidden_witness,
    f_value,
    g_value,
    ramsey_upper,
    ramsey_witness,
    theorem_bound,
)
from domcert.domination import gamma_exact, is_dominating, is_independent
from domcert.errors import DisconnectedGraphError, PreconditionError, WitnessContradictionError
from domcert.graph_core import (
    bfs_layers,
    closed_neighborhood,
    from_edge_list,
    gen_complete,
    gen_empty,
    gen_k_star,
    gen_path,
    gen_s_star,
)
from domcert.subgraph import is_free, verify_embedding
from domcert.verify import violation_suite


class TestRamseyUpper:
    def test_small_identities(self):
        assert ramsey_upper(2, 2).bound == 2
        assert ramsey_upper(1, 9).bound == 1
        assert ramsey_upper(2, 7).bound == 7

    def test_table_values(self):
        table = {(3, 3): 6, (3, 4): 9, (3, 5): 14, (3, 6): 18, (3, 7): 23,
                 (3, 8): 28, (3, 9): 36, (4, 4): 18, (4, 5): 25}
        for (s, t), value in table.items():
            assert ramsey_upper(s, t).bound == value
            assert ramsey_upper(s, t).kind == "exact-known"

    def test_symmetry(self):
        for s in range(1, 7):
            for t in range(1, 7):
                assert ramsey_upper(s, t).bound == ramsey_upper(t, s).bound

    def test_binomial_fallback(self):
        value = ramsey_upper(5, 5)
        assert value.bound == math.comb(8, 4) == 70
        assert value.kind == "derived-upper"

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            ramsey_upper(0, 3)
        with pytest.raises(PreconditionError):
            ramsey_upper(3, 0)

    def test_bound_at_least_max_when_nontrivial(self):
        for s in range(2, 8):
            for t in range(2, 8):
                assert ramsey_upper(s, t).bound >= max(s, t)

    def test_table_within_binomial(self):
        # The known exact values never exceed the general upper bound, so
        # substituting either keeps every derived certificate valid.
        for s in range(1, 10):
            for t in range(1, 10):
                assert ramsey_upper(s, t).bound <= math.comb(s + t - 2, s - 1)


def _g_binomial(k: int, ell: int, i: int) -> int:
    """Same recursion with the pure binomial bound: independent upper oracle."""
    if i == 1:
        return 1
    t = (ell - 1) * _g_binomial(k, ell, i - 1) + 1
    return math.comb(k + t - 2, k - 1) - 1


class TestBoundFunctions:
    def test_g_base_case(self):
        for k in (1, 2, 5):
            for ell in (1, 3, 4):
                assert g_value(k, ell, 1) == 1

    def test_g_small_values(self):
        assert g_value(2, 2, 2) == 1
        assert g_value(3, 3, 2) == 5
        assert g_value(3, 2, 2) == 2
        assert g_value(3, 2, 3) == 5

    def test_g_collapses_for_single_leg(self):
        # ell = 1 makes the inner Ramsey call R(k, 1) = 1, so g vanishes.
        for k in (2, 3, 4):
            for i in (2, 3, 4):
                assert g_value(k, 1, i) == 0

    def test_f_values(self):
        assert f_value(2, 2, 2) == 2
        assert f_value(3, 3, 2) == 30

    def test_f_requires_deep_layer(self):
        with pytest.raises(PreconditionError):
            f_value(2, 2, 1)

    def test_f_at_least_g(self):
        for k in (1, 2, 3):
            for ell in (1, 2, 3):
                for i in (2, 3, 4):
                    assert f_value(k, ell, i) >= g_value(k, ell, i)

    def test_theorem_values(self):
        assert theorem_bound(2, 2, 5) == 5
        assert theorem_bound(3, 3, 4) == 31
        assert theorem_bound(3, 2, 5) == 22

    def test_theorem_empty_sum(self):
        for k, ell in ((1, 1), (2, 3), (4, 4)):
            for m in (1, 2, 3):
                assert theorem_bound(k, ell, m) == 1

    def test_nonpositive_rejected(self):
        with pytest.raises(PreconditionError):
            g_value(0, 1, 1)
        with pytest.raises(PreconditionError):
            theorem_bound(1, 0, 3)

    def test_binomial_recursion_dominates(self):
        # Replacing every Ramsey value by the larger binomial bound can only
        # grow g, so table-backed certificates are the tighter valid ones.
        for k in (2, 3, 4):
            for ell in (1, 2, 3):
                for i in (1, 2, 3):
                    assert _g_binomial(k, ell, i) >= g_value(k, ell, i)


class TestRamseyWitness:
    def test_five_cycle_has_neither(self):
        c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert ramsey_witness(c5, range(5), 3, 3) is None

    def test_edgeless_independent(self):
        g = gen_empty(4)
        found = ramsey_witness(g, range(4), 3, 4)
        assert found.kind == "independent"
        assert found.vertices == frozenset(range(4))

    def test_clique_searched_first(self):
        k4 = gen_complete(4)
        found = ramsey_witness(k4, range(4), 2, 1)
        assert found.kind == "clique"

    def test_lexicographic_first_witness(self):
        k4 = gen_complete(4)
        found = ramsey_witness(k4, range(4), 3, 3)
        assert found.vertices == frozenset({0, 1, 2})

    def test_subset_outside_graph(self):
        with pytest.raises(PreconditionError):
            ramsey_witness(gen_path(3), {5}, 1, 1)

    def test_no_depth_limit(self):
        found = ramsey_witness(gen_empty(1100), range(1100), 2, 1100)
        assert found.kind == "independent"
        assert found.vertices == frozenset(range(1100))

    def test_set_larger_than_pool(self):
        assert ramsey_witness(gen_empty(3), range(3), 4, 4) is None

    @given(graphs(min_n=1, max_n=8), st.data())
    def test_first_combination_in_lexicographic_order(self, g, data):
        pool = data.draw(st.sets(st.integers(0, g.n - 1)))
        s, t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        expected = None
        for kind, size, edge in (("clique", s, True), ("independent", t, False)):
            for members in combinations(sorted(pool), size):
                if all((v in g.adj[u]) == edge for u, v in combinations(members, 2)):
                    expected = (kind, frozenset(members))
                    break
            if expected is not None:
                break
        found = ramsey_witness(g, pool, s, t)
        assert (None if found is None else (found.kind, found.vertices)) == expected

    @given(graphs(min_n=6, max_n=8), st.integers(0, 7))
    def test_guaranteed_above_threshold(self, g, shift):
        pool = [v for v in range(g.n)][:6]
        found = ramsey_witness(g, pool, 3, 3)
        assert found is not None
        members = sorted(found.vertices)
        assert len(members) == 3
        if found.kind == "clique":
            assert all(v in g.adj[u] for u in members for v in members if u < v)
        else:
            assert is_independent(g, members)


class TestDominateLayer:
    def test_path_single_dominator(self):
        p5 = gen_path(5)
        assert dominate_layer(p5, bfs_layers(p5, 0), 2) == {1}

    def test_spider_middles(self):
        s3 = gen_s_star(3)
        assert dominate_layer(s3, bfs_layers(s3, 0), 2) == {1, 2, 3}

    @pytest.mark.parametrize("i", [-3, 0, 1])
    def test_shallow_layer_rejected(self, i):
        p5 = gen_path(5)
        with pytest.raises(PreconditionError, match="i >= 2"):
            dominate_layer(p5, bfs_layers(p5, 0), i)

    @pytest.mark.parametrize("i", [2, 5])
    def test_empty_layer_rejected(self, i):
        k4 = gen_complete(4)
        with pytest.raises(PreconditionError, match="empty"):
            dominate_layer(k4, bfs_layers(k4, 0), i)

    @given(connected_graphs(min_n=3, max_n=8))
    def test_dominates_unconditionally(self, g):
        layers = bfs_layers(g, 0)
        for i in range(2, layers.depth + 1):
            cover = dominate_layer(g, layers, i)
            assert layers.layers[i] <= closed_neighborhood(g, cover)
            _, u_set, residual, _ = _layer_stages(g, layers, i)
            assert residual == layers.layers[i] - closed_neighborhood(g, u_set)


def reference_construction(g, params, verify_freeness):
    """The construction restated literally: the set, and the report's fields by name."""
    root = min(range(g.n), key=lambda v: (bfs_layers(g, v).depth, v))
    layers = bfs_layers(g, root)
    dominating, sizes = {root}, []
    for i in range(2, layers.depth + 1):
        layer_set = dominate_layer(g, layers, i)
        dominating |= layer_set
        sizes.append(len(layer_set))
    total = 1 + sum(sizes)
    fields = {
        "root": root,
        "layer_sizes": tuple(sizes),
        "total_size": total,
        "k": None,
        "ell": None,
        "m": None,
        "layer_bounds": None,
        "total_bound": None,
        "bound_held": None,
        "freeness_checked": False,
    }
    if params is not None:
        k, ell, m = params
        bounds = tuple(f_value(k, ell, i) for i in range(2, layers.depth + 1))
        total_bound = theorem_bound(k, ell, m)
        held = total <= total_bound
        for size, bound in zip(sizes, bounds):
            held = held and size <= bound
        patterns = [gen_k_star(k), gen_s_star(ell), gen_path(m)]
        fields.update(
            k=k,
            ell=ell,
            m=m,
            layer_bounds=bounds,
            total_bound=total_bound,
            bound_held=held,
            freeness_checked=verify_freeness and is_free(g, patterns).free,
        )
    return frozenset(dominating), fields


def typed(fields):
    """Each value with its type, so that True and 1 differ as they do in a report."""
    return {name: (type(value), value) for name, value in fields.items()}


class TestConstructDominatingSet:
    @given(
        connected_graphs(max_n=8),
        st.none() | st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 7)),
        st.booleans(),
    )
    @example(gen_complete(5), (3, 2, 5), True)  # bound held, graph free
    @example(gen_path(8), (2, 2, 5), True)  # bound failed, P_5 induced
    @example(gen_path(8), (2, 2, 5), False)
    @example(gen_s_star(3), (2, 2, 7), False)  # total within its bound, layer 2 above f
    def test_matches_literal_reference(self, g, params, verify_freeness):
        verify_freeness = verify_freeness and params is not None
        k, ell, m = params or (None, None, None)
        dominating, report = construct_dominating_set(
            g, k=k, ell=ell, m=m, verify_freeness=verify_freeness
        )
        expected, fields = reference_construction(g, params, verify_freeness)
        assert dominating == expected
        assert typed(vars(report)) == typed(fields)
        if params is None:
            assert report == BoundReport(
                fields["root"], fields["layer_sizes"], fields["total_size"]
            )

    def test_complete_single_vertex(self):
        for root in (0, 3):
            dominating, report = construct_dominating_set(gen_complete(5), root=root)
            assert dominating == {root}
            assert report.total_size == 1 and report.layer_sizes == ()

    def test_path_seven_from_center(self):
        p7 = gen_path(7)
        dominating, report = construct_dominating_set(p7, root=3)
        assert dominating == {1, 2, 3, 4, 5}
        assert is_dominating(p7, dominating)
        assert report.layer_sizes == (2, 2)

    def test_default_root_is_central(self):
        _, report = construct_dominating_set(gen_path(5))
        assert report.root == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            construct_dominating_set(gen_empty(3))

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            construct_dominating_set(gen_empty(0))

    def test_partial_parameters_rejected(self):
        with pytest.raises(PreconditionError, match="all of k"):
            construct_dominating_set(gen_path(3), k=3)

    def test_freeness_check_needs_parameters(self):
        with pytest.raises(PreconditionError, match="needs k"):
            construct_dominating_set(gen_path(3), verify_freeness=True)

    def test_report_without_parameters(self):
        _, report = construct_dominating_set(gen_path(7))
        assert report.k is None and report.layer_bounds is None
        assert report.total_bound is None and report.bound_held is None
        assert not report.freeness_checked

    def test_report_with_parameters_on_free_graph(self):
        k5 = gen_complete(5)
        _, report = construct_dominating_set(k5, k=3, ell=2, m=5, verify_freeness=True)
        assert report.total_bound == 22
        assert report.bound_held and report.freeness_checked

    def test_freeness_check_fails_on_violating_graph(self):
        # P_7 contains an induced P_5, so the premise check must come back
        # false even though the construction still dominates.
        p7 = gen_path(7)
        dominating, report = construct_dominating_set(
            p7, k=3, ell=2, m=5, verify_freeness=True
        )
        assert is_dominating(p7, dominating)
        assert not report.freeness_checked

    def test_deep_graph_flags_bound_failure(self):
        p12 = gen_path(12)
        dominating, report = construct_dominating_set(p12, root=0, k=2, ell=2, m=5)
        assert is_dominating(p12, dominating)
        assert report.total_bound == 5
        assert not report.bound_held
        assert len(report.layer_sizes) == len(report.layer_bounds) == 10

    @given(connected_graphs(max_n=8))
    def test_always_dominates_and_bounds_gamma(self, g):
        dominating, report = construct_dominating_set(g)
        assert is_dominating(g, dominating)
        assert report.total_size == 1 + sum(report.layer_sizes)
        assert gamma_exact(g).gamma <= len(dominating)


class TestFamilyIdentities:
    def test_three_families_share_gamma(self):
        for c in range(0, 8):
            expected = c + 1
            assert gamma_exact(gen_k_star(c + 1)).gamma == expected
            assert gamma_exact(gen_s_star(c + 1)).gamma == expected
            assert gamma_exact(gen_path(3 * c + 1)).gamma == expected


class TestWitnessExtraction:
    def test_pigeonhole_lowest_centre_or_contradiction(self):
        s3 = gen_s_star(3)  # centre 0, middles 1..3, tips 4..6
        assert _pigeonhole(s3, [2, 0], [1, 2, 3], 3, "ell members") == (0, [1, 2, 3])
        # Each tip sees one middle, short of two; the message names the target.
        with pytest.raises(WitnessContradictionError, match="reaches the Ramsey threshold"):
            _pigeonhole(s3, [4, 5], [1, 2, 3], 2, "the Ramsey threshold")

    def test_spider_golden_embedding(self):
        s3 = gen_s_star(3)
        witness = extract_forbidden_witness(s3, bfs_layers(s3, 0), 2, 3, 2)
        assert witness.shape == "sstar" and witness.size == 2
        assert witness.embedding.mapping == (0, 1, 2, 4, 5)

    def test_pendant_clique_golden_embedding(self):
        k4 = gen_k_star(4)
        witness = extract_forbidden_witness(k4, bfs_layers(k4, 4), 3, 3, 1)
        assert witness.shape == "kstar" and witness.size == 3
        assert witness.embedding.mapping == (1, 2, 3, 5, 6, 7)

    def test_second_stage_independent_branch(self):
        # U fits its bound but the residual stage overflows; the privates are
        # pairwise non-adjacent, so the spider branch fires.
        base = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 5), (4, 6)]
        g = from_edge_list(7, base)
        witness = extract_forbidden_witness(g, bfs_layers(g, 0), 2, 2, 2)
        assert witness.shape == "sstar"
        assert witness.embedding.mapping == (1, 3, 4, 5, 6)

    def test_second_stage_clique_branch(self):
        base = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 5), (4, 6)]
        g = from_edge_list(7, base + [(5, 6)])
        witness = extract_forbidden_witness(g, bfs_layers(g, 0), 2, 2, 2)
        assert witness.shape == "kstar"
        assert witness.embedding.mapping == (5, 6, 3, 4)

    def test_within_bounds_returns_nothing(self):
        c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert extract_forbidden_witness(c4, bfs_layers(c4, 0), 2, 3, 2) is None

    def test_non_violating_spider_hosts(self):
        # A spider with fewer legs than the Ramsey threshold never overflows.
        for ell in (3, 4):
            host = gen_s_star(ell)
            layers = bfs_layers(host, 0)
            assert extract_forbidden_witness(host, layers, 2, 3, ell) is None

    @pytest.mark.parametrize("i", [-3, 0, 1])
    def test_shallow_layer_rejected(self, i):
        p5 = gen_path(5)
        with pytest.raises(PreconditionError, match="i >= 2"):
            extract_forbidden_witness(p5, bfs_layers(p5, 0), i, 2, 2)

    @pytest.mark.parametrize("i", [2, 5])
    def test_empty_layer_rejected(self, i):
        k4 = gen_complete(4)
        with pytest.raises(PreconditionError, match="empty"):
            extract_forbidden_witness(k4, bfs_layers(k4, 0), i, 2, 2)

    def test_bad_parameters_rejected(self):
        p5 = gen_path(5)
        with pytest.raises(PreconditionError):
            extract_forbidden_witness(p5, bfs_layers(p5, 0), 2, 0, 2)

    @given(connected_graphs(min_n=3, max_n=8))
    @example(gen_s_star(3))
    @example(from_edge_list(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 5), (4, 6)]))
    def test_overflow_and_freeness_agree_with_extraction(self, g):
        # Construction and extraction run the same stages: a layer set above
        # f(k, l, i) must yield a witness, and a free graph must yield none.
        # The examples overflow at (2, 2) in the U and the X0 stage.
        for k, ell in product((1, 2, 3), repeat=2):
            free = is_free(g, [gen_k_star(k), gen_s_star(ell)]).free
            for root in range(g.n):
                layers = bfs_layers(g, root)
                for i in range(2, layers.depth + 1):
                    witness = extract_forbidden_witness(g, layers, i, k, ell)
                    if free:
                        assert witness is None
                    if len(dominate_layer(g, layers, i)) > f_value(k, ell, i):
                        assert witness is not None
                    if witness is not None:
                        kstar = witness.shape == "kstar"
                        size, pattern = (k, gen_k_star(k)) if kstar else (ell, gen_s_star(ell))
                        assert witness.size == size
                        assert verify_embedding(g, pattern, witness.embedding)

    def test_violation_suite_revalidates(self):
        for host, root, layer, k, ell, shape, size in violation_suite():
            witness = extract_forbidden_witness(host, bfs_layers(host, root), layer, k, ell)
            assert witness is not None
            assert witness.shape == shape and witness.size == size
            pattern = gen_k_star(size) if shape == "kstar" else gen_s_star(size)
            assert verify_embedding(host, pattern, witness.embedding)


# sha256 of repr((root, sorted set, report, witnesses)), where the set and report
# are construct_dominating_set(g, k=3, ell=2, m=6) on sparse_connected(1000,
# Random(seed)) and the witnesses are extract_forbidden_witness at (2, 2), then
# (3, 2), at each layer i >= 2 of that root. A change to a digest on purpose is
# named, with its reason, in CHANGES.md.
LARGE_GOLDEN = {
    1: "4ba4453b9b01bf59421ea515cae9e0780671f7b34b17f2beb5b964c4b2056df5",
    2: "b7ab61acc5c0cc222711fc50a42d8cdc9dc8241a2114011665ef629388d78ec9",
}


@pytest.mark.parametrize("seed", sorted(LARGE_GOLDEN))
def test_large_graph_golden(seed):
    g = sparse_connected(1000, random.Random(seed))
    chosen, report = construct_dominating_set(g, k=3, ell=2, m=6)
    layers = bfs_layers(g, report.root)
    witnesses = [
        extract_forbidden_witness(g, layers, i, k, ell)
        for k, ell in ((2, 2), (3, 2))
        for i in range(2, layers.depth + 1)
    ]
    text = repr((report.root, sorted(chosen), report, witnesses))
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_GOLDEN[seed]
