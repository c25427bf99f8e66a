"""Kernels read masks, checkers read adj: the two routes share no code.

The oracles and the literal checkers that the tests and the benchmark trust
reference none of the fast routes and build no graph of their own; the search
and construction kernels reference none of the frozenset adjacency.
"""

from __future__ import annotations

import pytest

from domcert.bound_engine import (
    _layer_stages,
    _pigeonhole,
    _u_overflow_witness,
    extract_forbidden_witness,
    ramsey_witness,
)
from domcert.corpus import _automorphism_test, _refine, all_labeled_graphs
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
from domcert.graph_core import bfs_layers, closed_neighborhood
from domcert.subgraph import contains_induced, induced_subgraph_brute, verify_embedding

FAST_ROUTE_NAMES = {"masks", "contains_induced", "gamma_exact"}
LITERAL_NAMES = {"adj", "has_edge", "closed_neighborhood"}
GRAPH_BUILDERS = {
    "Graph", "induced", "relabel", "from_edge_list", "parse_graph6", "parse_edge_list",
    "trusted_graph", "_trusted_graph",
}

CHECKERS = [
    induced_subgraph_brute,
    gamma_brute_force,
    verify_embedding,
    is_dominating,
    closed_neighborhood,
    is_independent,
]
KERNELS = [
    bfs_layers,
    maximal_independent_subset,
    minimal_dominating_subset,
    private_neighbors,
    ramsey_witness,
    gamma_exact,
    independence_number,
    contains_induced,
    _refine,
    _layer_stages,
    _pigeonhole,
    _u_overflow_witness,
    extract_forbidden_witness,
    _automorphism_test,
    all_labeled_graphs,
]


def referenced_names(code):
    """Global, attribute and closure names of a code object and its nested ones."""
    names = set(code.co_names) | set(code.co_freevars)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= referenced_names(const)
    return names


@pytest.mark.parametrize("oracle", CHECKERS)
def test_oracle_avoids_fast_routes(oracle):
    assert referenced_names(oracle.__code__) & FAST_ROUTE_NAMES == set()


@pytest.mark.parametrize("checker", CHECKERS)
def test_checker_builds_no_graph(checker):
    assert referenced_names(checker.__code__) & GRAPH_BUILDERS == set()


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_avoids_literal_adjacency(kernel):
    assert referenced_names(kernel.__code__) & LITERAL_NAMES == set()


def test_guard_sees_nested_code():
    def outer(graph):
        return lambda: graph.masks

    assert "masks" in referenced_names(outer.__code__)
