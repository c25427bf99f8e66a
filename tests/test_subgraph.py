"""Induced containment, freeness, and the family order."""

from __future__ import annotations

import hashlib
from itertools import combinations, permutations

from hypothesis import given

from conftest import graphs
from domcert.corpus import corpus_graphs
from domcert.graph_core import (
    from_edge_list,
    gen_complete,
    gen_empty,
    gen_k_star,
    gen_path,
    gen_s_star,
)
from domcert.subgraph import (
    Embedding,
    contains_induced,
    induced_subgraph_brute,
    is_free,
    leq_relation,
    verify_embedding,
)


def claw():
    return from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def reference_scan(host, pattern):
    """Literal subset-by-permutation scan, the first induced copy in lex order."""
    for subset in combinations(range(host.n), pattern.n):
        for perm in permutations(subset):
            if verify_embedding(host, pattern, Embedding(perm)):
                return Embedding(perm)
    return None


# sha256 over repr(contains_induced(host, pattern).mapping or None) + "\n" for
# corpus hosts (n <= 6) x corpus patterns (n <= 5), as produced by the
# per-vertex backtracking that preceded the bitmask search.
CONTAINMENT_DIGEST = "b9d24be888ee7c0254859d041b6f6180cf3119e890ee3960e2db64f4db4e9dfd"


class TestContainsInduced:
    def test_claw_inside_spider(self):
        emb = contains_induced(gen_s_star(3), claw())
        assert emb is not None
        assert verify_embedding(gen_s_star(3), claw(), emb)
        # center must map to the spider's center, leaves to the middles
        assert emb.mapping[0] == 0
        assert sorted(emb.mapping[1:]) == [1, 2, 3]

    def test_order_excess(self):
        assert contains_induced(gen_path(3), gen_path(4)) is None

    def test_no_induced_path_in_complete(self):
        assert contains_induced(gen_complete(4), gen_path(3)) is None

    def test_empty_pattern_embeds(self):
        assert contains_induced(gen_path(3), gen_empty(0)) == Embedding(())

    def test_deterministic_embedding(self):
        first = contains_induced(gen_path(6), gen_path(4))
        second = contains_induced(gen_path(6), gen_path(4))
        assert first == second

    def test_corpus_embeddings_byte_identical(self):
        digest = hashlib.sha256()
        hosts = corpus_graphs(6)
        patterns = [g for g in hosts if g.n <= 5]
        for host in hosts:
            for pattern in patterns:
                emb = contains_induced(host, pattern)
                digest.update(repr(None if emb is None else emb.mapping).encode() + b"\n")
        assert digest.hexdigest() == CONTAINMENT_DIGEST

    @given(graphs(max_n=7), graphs(max_n=5))
    def test_first_embedding_in_step_order(self, host, pattern):
        # Pattern vertices by descending degree, ascending id; the embedding
        # returned is the valid one whose images in that order are smallest.
        order = sorted(range(pattern.n), key=lambda p: (-len(pattern.adj[p]), p))
        valid = [
            perm
            for perm in permutations(range(host.n), pattern.n)
            if verify_embedding(host, pattern, Embedding(perm))
        ]
        first = min(valid, key=lambda m: [m[p] for p in order], default=None)
        assert contains_induced(host, pattern) == (None if first is None else Embedding(first))

    @given(graphs(max_n=7), graphs(max_n=4))
    def test_agrees_with_brute_force(self, host, pattern):
        fast = contains_induced(host, pattern)
        slow = induced_subgraph_brute(host, pattern)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert verify_embedding(host, pattern, fast)
        if slow is not None:
            assert verify_embedding(host, pattern, slow)


class TestBruteOracle:
    @given(graphs(max_n=7), graphs(max_n=5))
    def test_first_embedding_of_reference_scan(self, host, pattern):
        assert induced_subgraph_brute(host, pattern) == reference_scan(host, pattern)

    def test_first_copy_and_absence(self):
        # Host P_6 and pattern P_4: the first subset {0,1,2,3} already works.
        assert induced_subgraph_brute(gen_path(6), gen_path(4)) == Embedding((0, 1, 2, 3))
        assert induced_subgraph_brute(cycle(5), gen_complete(3)) is None


class TestVerifyEmbedding:
    def test_rejects_wrong_length(self):
        assert not verify_embedding(gen_path(3), gen_path(2), Embedding((0,)))

    def test_rejects_non_injective(self):
        assert not verify_embedding(gen_path(3), gen_empty(2), Embedding((1, 1)))

    def test_rejects_out_of_range(self):
        assert not verify_embedding(gen_path(3), gen_empty(2), Embedding((0, 9)))

    def test_rejects_missing_edge(self):
        assert not verify_embedding(gen_path(3), gen_path(2), Embedding((0, 2)))

    def test_rejects_extra_edge(self):
        assert not verify_embedding(gen_path(3), gen_empty(2), Embedding((0, 1)))

    def test_accepts_valid(self):
        assert verify_embedding(gen_path(3), gen_path(2), Embedding((1, 2)))


class TestIsFree:
    def test_complete_is_path_free(self):
        assert is_free(gen_complete(5), [gen_path(3)])

    def test_path_contains_shorter_path(self):
        outcome = is_free(gen_path(6), [gen_path(4)])
        assert not outcome
        assert outcome.violated_index == 0
        assert verify_embedding(gen_path(6), gen_path(4), outcome.embedding)

    def test_five_cycle_ramsey_free(self):
        assert is_free(cycle(5), [gen_complete(3), gen_empty(3)])

    def test_empty_pattern_list(self):
        assert is_free(gen_path(4), [])

    def test_reports_first_violated_pattern(self):
        outcome = is_free(gen_path(6), [gen_complete(3), gen_path(3), gen_path(4)])
        assert outcome.violated_index == 1


class TestLeqRelation:
    def test_claw_below_spider(self):
        assert leq_relation([claw()], [gen_s_star(3)])

    def test_longer_path_not_below_shorter(self):
        assert not leq_relation([gen_path(4)], [gen_path(3)])

    def test_reflexive_on_triple(self):
        triple = [gen_k_star(2), gen_s_star(2), gen_path(5)]
        assert leq_relation(triple, triple)

    def test_empty_second(self):
        assert leq_relation([gen_path(3)], [])

    def test_empty_first_nonempty_second(self):
        assert not leq_relation([], [gen_path(3)])

    def test_transitive_chain(self):
        a, b, c = [gen_path(3)], [gen_path(4)], [gen_path(5)]
        assert leq_relation(a, b) and leq_relation(b, c) and leq_relation(a, c)

    @given(graphs(max_n=7))
    def test_monotone_freeness(self, g):
        # claw <= spider-3, so claw-free graphs must be spider-3-free
        if is_free(g, [claw()]):
            assert is_free(g, [gen_s_star(3)])
