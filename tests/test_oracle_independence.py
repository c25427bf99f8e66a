"""The oracle routes share no code with the fast routes they cross-check."""

from __future__ import annotations

import pytest

from domcert.domination import gamma_brute_force
from domcert.subgraph import induced_subgraph_brute

FAST_ROUTE_NAMES = {"masks", "contains_induced", "gamma_exact"}


def referenced_names(code):
    """Global, attribute and closure names of a code object and its nested ones."""
    names = set(code.co_names) | set(code.co_freevars)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= referenced_names(const)
    return names


@pytest.mark.parametrize("oracle", [induced_subgraph_brute, gamma_brute_force])
def test_oracle_avoids_fast_routes(oracle):
    assert referenced_names(oracle.__code__) & FAST_ROUTE_NAMES == set()


def test_guard_sees_nested_code():
    def outer(graph):
        return lambda: graph.masks

    assert "masks" in referenced_names(outer.__code__)
