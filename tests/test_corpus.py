"""Canonical forms, exhaustive enumeration, the packaged corpus, and sampling."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from conftest import graphs
from domcert.corpus import (
    CORPUS_MAX_N,
    EXPECTED_CONNECTED_COUNTS,
    all_labeled_graphs,
    are_isomorphic,
    canonical_form,
    canonical_graph6,
    corpus_graphs,
    enumerate_connected_graphs,
    erdos_renyi,
    load_fixture_corpus,
    sample_free_connected,
)
from domcert.graph_core import (
    Graph,
    from_edge_list,
    gen_complete,
    gen_empty,
    gen_k_star,
    gen_path,
    gen_s_star,
    is_connected,
    parse_graph6,
    to_graph6,
)
from domcert.subgraph import is_free


def relabel(graph: Graph, perm: list[int]) -> Graph:
    edges = [(perm[u], perm[v]) for u, v in graph.edges()]
    return from_edge_list(graph.n, edges)


class TestCanonicalForm:
    def test_relabeled_path_matches(self):
        p4 = gen_path(4)
        scrambled = relabel(p4, [2, 0, 3, 1])
        assert canonical_graph6(p4) == canonical_graph6(scrambled)

    def test_same_degrees_still_distinguished(self):
        c6 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        two_triangles = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert c6.degree_sequence() == two_triangles.degree_sequence()
        assert canonical_graph6(c6) != canonical_graph6(two_triangles)

    def test_canonical_form_is_isomorphic_fixed_point(self):
        g = gen_k_star(3)
        canon = canonical_form(g)
        assert are_isomorphic(g, canon)
        assert to_graph6(canon) == canonical_graph6(g)
        assert canonical_form(canon) == canon

    def test_are_isomorphic_examples(self):
        assert are_isomorphic(gen_s_star(2), gen_path(5))
        assert not are_isomorphic(gen_path(4), gen_k_star(3))
        assert not are_isomorphic(gen_path(4), gen_path(5))

    @given(graphs(min_n=1, max_n=7), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_graph6(relabel(g, perm)) == canonical_graph6(g)


class TestEnumeration:
    def test_counts_up_to_six(self):
        grouped = enumerate_connected_graphs(6)
        counts = {n: len(members) for n, members in grouped.items()}
        assert counts == {n: EXPECTED_CONNECTED_COUNTS[n] for n in range(1, 7)}

    def test_members_connected_and_distinct(self):
        grouped = enumerate_connected_graphs(5)
        for members in grouped.values():
            assert all(is_connected(g) for g in members)
            keys = [canonical_graph6(g) for g in members]
            assert len(set(keys)) == len(keys)

    def test_all_labeled_counts(self):
        assert len(list(all_labeled_graphs(3))) == 8
        assert len(list(all_labeled_graphs(4))) == 64


class TestFixtureCorpus:
    def test_counts_match_expected(self):
        grouped = load_fixture_corpus()
        counts = {n: len(members) for n, members in grouped.items()}
        assert counts == EXPECTED_CONNECTED_COUNTS

    def test_all_connected(self):
        assert all(is_connected(g) for g in corpus_graphs(CORPUS_MAX_N))

    def test_roundtrip_identity(self):
        for g in corpus_graphs(CORPUS_MAX_N):
            assert parse_graph6(to_graph6(g)) == g

    def test_matches_fresh_enumeration(self):
        fresh = enumerate_connected_graphs(5)
        stored = load_fixture_corpus()
        for n in range(1, 6):
            assert [to_graph6(g) for g in stored[n]] == [to_graph6(g) for g in fresh[n]]

    def test_relabelled_lines_are_fixed_points(self):
        # Covers n = 6 and 7, which the fresh enumeration above leaves out.
        rng = random.Random(6)
        for g in corpus_graphs(7):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_graph6(relabel(g, perm)) == to_graph6(g)

    def test_corpus_graphs_honours_cutoff(self):
        sizes = {g.n for g in corpus_graphs(4)}
        assert sizes == {1, 2, 3, 4}


class TestSampling:
    def test_erdos_renyi_extremes(self):
        rng = random.Random(1)
        assert erdos_renyi(5, 1.0, rng) == gen_complete(5)
        assert erdos_renyi(5, 0.0, rng) == gen_empty(5)

    def test_erdos_renyi_deterministic(self):
        first = erdos_renyi(8, 0.5, random.Random(42))
        second = erdos_renyi(8, 0.5, random.Random(42))
        assert first == second

    def test_sample_deterministic_and_certified(self):
        patterns = [gen_k_star(3), gen_s_star(2)]
        configs = [(6, 0.5), (7, 0.5)]
        batch = sample_free_connected(10, configs, patterns, seed=11)
        again = sample_free_connected(10, configs, patterns, seed=11)
        assert [to_graph6(g) for g in batch] == [to_graph6(g) for g in again]
        for g in batch:
            assert is_connected(g)
            assert is_free(g, patterns)

    def test_different_seeds_differ(self):
        patterns = [gen_path(6)]
        one = sample_free_connected(5, [(6, 0.6)], patterns, seed=1)
        two = sample_free_connected(5, [(6, 0.6)], patterns, seed=2)
        assert [to_graph6(g) for g in one] != [to_graph6(g) for g in two]

    def test_stall_raises(self):
        # A single vertex is an induced subgraph of everything, so no draw can
        # ever be accepted and the attempt cap must fire.
        impossible = [gen_path(1)]
        with pytest.raises(RuntimeError, match="stalled"):
            sample_free_connected(1, [(4, 0.5)], impossible, seed=3, max_attempts=25)
