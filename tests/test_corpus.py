"""Canonical forms, exhaustive enumeration, the packaged corpus, and sampling."""

from __future__ import annotations

import random
import sys
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graphs
from domcert.corpus import (
    CORPUS_MAX_N,
    EXPECTED_CONNECTED_COUNTS,
    _refine,
    all_labeled_graphs,
    canonical_graph6,
    corpus_graphs,
    enumerate_connected_graphs,
    erdos_renyi,
    fixture_path,
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
from domcert.verify import CLAW_CONFIGS_10, claw_graph


def relabel(graph: Graph, perm: list[int]) -> Graph:
    edges = [(perm[u], perm[v]) for u, v in graph.edges()]
    return from_edge_list(graph.n, edges)


def unpruned_canonical_graph6(graph: Graph) -> str:
    """Reference: the minimum leaf over the whole individualization tree."""
    if graph.n == 0:
        return to_graph6(graph)
    best: Optional[str] = None

    def search(cells: list[tuple[int, ...]]) -> None:
        nonlocal best
        cells = _refine(graph, cells)
        target = next((idx for idx, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [v for (v,) in cells]
            encoded = to_graph6(graph.relabel(order))
            if best is None or encoded < best:
                best = encoded
            return
        cell = cells[target]
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            search(cells[:target] + [(v,), rest] + cells[target + 1:])

    search([tuple(range(graph.n))])
    assert best is not None
    return best


def restart_refine(graph: Graph, cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Reference: `_refine` as it was before it skipped stable splitters, which
    rescans every splitter from the first cell after each split."""
    masks = graph.masks
    while True:
        for splitter in cells:
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
        else:
            return cells


@st.composite
def ordered_partitions(draw, graph: Graph) -> list[tuple[int, ...]]:
    """The graph's vertices in a random order, cut into consecutive cells."""
    order = draw(st.permutations(range(graph.n)))
    cuts = draw(st.lists(st.booleans(), min_size=graph.n - 1, max_size=graph.n - 1))
    bounds = [0] + [i for i, cut in enumerate(cuts, 1) if cut] + [graph.n]
    return [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])]


@st.composite
def clique_unions(draw, max_n: int = 7) -> Graph:
    """Disjoint union of cliques, or its complement, under a random labelling."""
    n = draw(st.integers(1, max_n))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    complement = draw(st.booleans())
    perm = draw(st.permutations(range(n)))
    # u < v lie in one clique when no cut separates them.
    return from_edge_list(n, [
        (perm[u], perm[v]) for u in range(n) for v in range(u + 1, n)
        if any(cuts[u:v]) == complement
    ])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


# Canonical strings computed with the unpruned search; index k is K*_k or S*_k.
KSTAR_CANONICAL = [
    None, "A_", "CL", "E@UW", "G?Ci[[", "I??GhLF`w", "K???GSRGyFo^",
    "M????CDAWbcNO^_^_", "O?????@?gH`FCNGNgF{@~",
]
SSTAR_CANONICAL = [
    None, "BW", "DBg", "F@Q?w", "H?CaC?N", "J??G`@?_?N_", "L???GOOGA?O??~",
    "N????CCA?_C?O?_??Nw", "P?????@?_G@?C?G?G?C???N{",
]


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
        canon = canonical_graph6(gen_k_star(3))
        assert canonical_graph6(parse_graph6(canon)) == canon

    def test_are_isomorphic_examples(self):
        assert canonical_graph6(gen_s_star(2)) == canonical_graph6(gen_path(5))
        assert canonical_graph6(gen_path(4)) != canonical_graph6(gen_k_star(3))
        assert canonical_graph6(gen_path(4)) != canonical_graph6(gen_path(5))

    @given(graphs(min_n=1, max_n=7), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_graph6(relabel(g, perm)) == canonical_graph6(g)

    @given(graphs(max_n=8))
    def test_matches_unpruned_search(self, g):
        assert canonical_graph6(g) == unpruned_canonical_graph6(g)

    @given(clique_unions())
    def test_matches_unpruned_search_on_symmetric_graphs(self, g):
        assert canonical_graph6(g) == unpruned_canonical_graph6(g)

    def test_complete_and_empty_up_to_thirty(self):
        for n in range(1, 31):
            assert canonical_graph6(gen_complete(n)) == to_graph6(gen_complete(n))
            assert canonical_graph6(gen_empty(n)) == to_graph6(gen_empty(n))

    @settings(max_examples=300)
    @given(st.data())
    def test_refine_matches_restart_reference(self, data):
        g = data.draw(graphs(min_n=1, max_n=12))
        cells = data.draw(ordered_partitions(g))
        assert _refine(g, list(cells)) == restart_refine(g, cells)

    def test_golden_symmetric_families(self):
        assert canonical_graph6(petersen_graph()) == "I?LRCecq?"
        for k in range(1, 9):
            assert canonical_graph6(gen_k_star(k)) == KSTAR_CANONICAL[k]
            assert canonical_graph6(gen_s_star(k)) == SSTAR_CANONICAL[k]


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

    @pytest.mark.parametrize("n", range(6))
    def test_all_labeled_matches_edge_list_construction(self, n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        expected = [
            from_edge_list(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for mask in range(1 << len(pairs))
        ]
        assert list(all_labeled_graphs(n)) == expected


class TestFixtureCorpus:
    def test_counts_match_expected(self):
        grouped = load_fixture_corpus()
        counts = {n: len(members) for n, members in grouped.items()}
        assert counts == EXPECTED_CONNECTED_COUNTS

    def test_all_connected(self):
        assert all(is_connected(g) for g in corpus_graphs(CORPUS_MAX_N))

    def test_shared_neighbourhoods_parse_like_parse_graph6(self):
        lines = [line for line in fixture_path().read_text().splitlines() if line.strip()]
        grouped = load_fixture_corpus()
        loaded = [g for n in sorted(grouped) for g in grouped[n]]
        assert loaded == [parse_graph6(line) for line in lines]
        assert len({id(nbrs) for g in loaded for nbrs in g.adj}) <= 1 << CORPUS_MAX_N

    def test_roundtrip_identity(self):
        for g in corpus_graphs(CORPUS_MAX_N):
            assert parse_graph6(to_graph6(g)) == g

    def test_matches_fresh_enumeration(self):
        fresh = enumerate_connected_graphs(5)
        stored = load_fixture_corpus()
        for n in range(1, 6):
            assert [to_graph6(g) for g in stored[n]] == [to_graph6(g) for g in fresh[n]]

    def test_relabelled_lines_are_fixed_points(self):
        # Covers n = 6 to 8, which the fresh enumeration above leaves out.
        rng = random.Random(6)
        for g in corpus_graphs():
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

    def test_sampled_neighbourhoods_are_shared(self):
        patterns = [claw_graph(), gen_k_star(3)]
        batch = sample_free_connected(1000, CLAW_CONFIGS_10, patterns, seed=5)
        distinct = {id(nbrs): nbrs for g in batch for nbrs in g.adj}.values()
        assert len(distinct) == len(set(distinct)) <= 1 << 10
        assert sum(sys.getsizeof(nbrs) for nbrs in distinct) < 1 << 20
        assert batch == [from_edge_list(g.n, g.edges()) for g in batch]
        # The same draws, filtered one by one.
        rng, expected, attempts = random.Random(5), [], 0
        while len(expected) < 1000:
            n, p = CLAW_CONFIGS_10[attempts % len(CLAW_CONFIGS_10)]
            attempts += 1
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = from_edge_list(n, edges)
            if is_connected(g) and is_free(g, patterns):
                expected.append(edges)
        assert [g.edges() for g in batch] == expected

    def test_stall_raises(self):
        # A single vertex is an induced subgraph of everything, so no draw can
        # ever be accepted and the attempt cap must fire.
        impossible = [gen_path(1)]
        with pytest.raises(RuntimeError, match="stalled: 0/1 accepted in 4000 draws"):
            sample_free_connected(1, [(4, 0.5)], impossible, seed=3)
