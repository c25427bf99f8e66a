"""Layered dominating-set construction with certified size bounds.

The construction dominates each BFS layer of a connected graph by a small set
assembled from the layer above it. For graphs free of K*_k, S*_ell, and P_m
the per-layer sets provably fit under the recursive bound f(k, ell, i), giving
a dominating set of size at most theorem_bound(k, ell, m).

Extraction (extract_forbidden_witness) runs the same X/U/X0 stage code as
dominate_layer and retraces the bound's proof wherever a stage overflows: a
layer set above f(k, ell, i) always yields, for the same root and layer, an
induced K*_k or S*_ell as an explicit embedding.

Ramsey numbers enter through ramsey_upper, which substitutes certified upper
bounds where exact values are unknown; every derived quantity stays a valid
(possibly loose) certificate, and reports carry the exact-known/derived-upper
tag so users can judge tightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .domination import (
    maximal_independent_subset,
    minimal_dominating_subset,
    private_neighbors,
)
from .errors import (
    DisconnectedGraphError,
    PreconditionError,
    WitnessContradictionError,
)
from .graph_core import (
    Graph,
    LayerDecomposition,
    _members,
    bfs_layers,
    gen_k_star,
    gen_path,
    gen_s_star,
    is_connected,
    min_eccentricity_vertex,
)
from .subgraph import Embedding, _first_assignment, is_free, verify_embedding

# Established small Ramsey numbers beyond the min(s,t) <= 2 identities,
# keyed with s <= t.
_EXACT_RAMSEY = {
    (3, 3): 6,
    (3, 4): 9,
    (3, 5): 14,
    (3, 6): 18,
    (3, 7): 23,
    (3, 8): 28,
    (3, 9): 36,
    (4, 4): 18,
    (4, 5): 25,
}


@dataclass(frozen=True)
class RamseyValue:
    """Certified value for R(s,t): exact where known, else a proven upper bound."""

    s: int
    t: int
    bound: int
    kind: str  # "exact-known" | "derived-upper"


@lru_cache(maxsize=None)
def ramsey_upper(s: int, t: int) -> RamseyValue:
    """Exact R(s,t) from the small-value table, else the binomial upper bound.

    Every graph on bound vertices contains a clique of size s or an
    independent set of size t; with kind "exact-known" the bound is also least.
    """
    if s < 1 or t < 1:
        raise PreconditionError(f"Ramsey arguments must be positive, got ({s},{t})")
    lo, hi = min(s, t), max(s, t)
    if lo == 1:
        return RamseyValue(s, t, 1, "exact-known")
    if lo == 2:
        return RamseyValue(s, t, hi, "exact-known")
    if (lo, hi) in _EXACT_RAMSEY:
        return RamseyValue(s, t, _EXACT_RAMSEY[(lo, hi)], "exact-known")
    return RamseyValue(s, t, math.comb(s + t - 2, s - 1), "derived-upper")


@lru_cache(maxsize=None)
def g_value(k: int, ell: int, i: int) -> int:
    """Layer-dominator bound: g(1) = 1, g(i) = R(k, (ell-1)g(i-1) + 1) - 1."""
    if k < 1 or ell < 1 or i < 1:
        raise PreconditionError(
            f"g_value arguments must be positive, got ({k},{ell},{i})"
        )
    if i == 1:
        return 1
    return ramsey_upper(k, (ell - 1) * g_value(k, ell, i - 1) + 1).bound - 1


def f_value(k: int, ell: int, i: int) -> int:
    """Full per-layer bound R(k, ell) * g(k, ell, i); defined for i >= 2."""
    if i < 2:
        raise PreconditionError(f"f_value requires i >= 2, got {i}")
    return ramsey_upper(k, ell).bound * g_value(k, ell, i)


def theorem_bound(k: int, ell: int, m: int) -> int:
    """Certified domination bound 1 + sum of f(k, ell, i) for 2 <= i <= m-2."""
    if k < 1 or ell < 1 or m < 1:
        raise PreconditionError(
            f"theorem_bound arguments must be positive, got ({k},{ell},{m})"
        )
    return 1 + sum(f_value(k, ell, i) for i in range(2, m - 1))


# ---------------------------------------------------------------------------
# Clique / independent-set search backing the Ramsey dichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RamseyWitness:
    """A clique or independent set found inside a vertex set."""

    kind: str  # "clique" | "independent"
    vertices: frozenset[int]


def ramsey_witness(
    graph: Graph, subset: Iterable[int], s: int, t: int
) -> Optional[RamseyWitness]:
    """Search subset for a clique of size s, then an independent set of size t.

    Both searches are exhaustive, so None certifies that neither exists; None
    is impossible once len(subset) reaches ramsey_upper(s, t).bound.
    """
    if s < 1 or t < 1:
        raise PreconditionError(f"Ramsey arguments must be positive, got ({s},{t})")
    pool = sorted(set(subset))
    if any(not 0 <= v < graph.n for v in pool):
        raise PreconditionError("subset contains ids outside the graph")
    allowed = sum(1 << v for v in pool)
    # Ascending steps, each linked to all earlier ones: the lexicographically first set.
    for kind, size, flip in (("clique", s, 0), ("independent", t, -1)):
        if size <= len(pool):
            pairs = tuple((q, flip) for q in range(size))
            links = [pairs[:step] for step in range(size)]
            below = [()] + [(step - 1,) for step in range(1, size)]
            found = _first_assignment(graph.masks, [allowed] * size, links, below)
            if found is not None:
                return RamseyWitness(kind, frozenset(found))
    return None


# ---------------------------------------------------------------------------
# Layer construction
# ---------------------------------------------------------------------------

def _stages_x_u(graph: Graph, layers: LayerDecomposition, i: int) -> tuple[frozenset[int], ...]:
    """Layer i with its stages X and U; see dominate_layer."""
    if i < 2:
        raise PreconditionError(f"layer stages require i >= 2, got {i}")
    target = layers.layer(i)
    if not target:
        raise PreconditionError(f"layer {i} is empty")
    x_set = maximal_independent_subset(graph, target)
    return target, x_set, minimal_dominating_subset(graph, layers.layer(i - 1), x_set)


def _stage_x0(
    graph: Graph, target: frozenset[int], x_set: frozenset[int], u_set: frozenset[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """The residual of layer i that U misses, and stage X0 dominating it; see dominate_layer."""
    covered = sum(1 << u for u in u_set)
    for u in u_set:
        covered |= graph.masks[u]
    residual = frozenset(_members(sum(1 << v for v in target) & ~covered))
    return residual, minimal_dominating_subset(graph, x_set, residual)


def dominate_layer(graph: Graph, layers: LayerDecomposition, i: int) -> frozenset[int]:
    """Dominating set for layer i built from layer i-1 and the layer itself.

    X is a maximal independent subset of layer i, U a minimal subset of layer
    i-1 dominating X, and X0 a minimal subset of X dominating what U misses.
    U united with X0 dominates all of layer i unconditionally; its size obeys
    f(k, ell, i) whenever the graph is {K*_k, S*_ell}-free.
    """
    target, x_set, u_set = _stages_x_u(graph, layers, i)
    _, x0_set = _stage_x0(graph, target, x_set, u_set)
    return frozenset(u_set | x0_set)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a layered construction, with per-layer and total bound checks.

    layer_sizes[j] is the size of the set built for layer j+2; layer_bounds
    lines up index-for-index when k, ell, m were supplied and is None
    otherwise. bound_held is None without parameters, else true iff the total
    and every layer fit under their bounds. freeness_checked is true only when
    verification was requested and the input really is free of all three
    patterns.
    """

    root: int
    layer_sizes: tuple[int, ...]
    total_size: int
    k: Optional[int] = None
    ell: Optional[int] = None
    m: Optional[int] = None
    layer_bounds: Optional[tuple[int, ...]] = None
    total_bound: Optional[int] = None
    bound_held: Optional[bool] = None
    freeness_checked: bool = False


def construct_dominating_set(
    graph: Graph,
    root: Optional[int] = None,
    k: Optional[int] = None,
    ell: Optional[int] = None,
    m: Optional[int] = None,
    verify_freeness: bool = False,
) -> tuple[frozenset[int], BoundReport]:
    """Dominating set from the root plus one layer set per BFS layer i >= 2.

    Works on any connected graph; no freeness assumption is needed for the
    output to dominate. When k, ell, m are all given, the report additionally
    compares each layer set against f(k, ell, i) and the total against
    theorem_bound(k, ell, m); for {K*_k, S*_ell, P_m}-free inputs bound_held
    is guaranteed true. The root defaults to a minimum-eccentricity vertex.
    """
    if graph.n == 0:
        raise PreconditionError("cannot dominate the empty graph")
    if not is_connected(graph):
        raise DisconnectedGraphError("construction requires a connected graph")
    params = (k, ell, m)
    if any(p is not None for p in params) and any(p is None for p in params):
        raise PreconditionError("supply all of k, ell, m or none of them")
    if verify_freeness and k is None:
        raise PreconditionError("freeness verification needs k, ell, m")

    if root is None:
        root = min_eccentricity_vertex(graph)
    layers = bfs_layers(graph, root)
    dominating = {root}
    layer_sizes = []
    for i in range(2, layers.depth + 1):
        hat_u = dominate_layer(graph, layers, i)
        dominating |= hat_u
        layer_sizes.append(len(hat_u))
    total_size = 1 + sum(layer_sizes)

    layer_bounds = total_bound = bound_held = None
    freeness_checked = False
    if k is not None:
        layer_bounds = tuple(
            f_value(k, ell, i) for i in range(2, layers.depth + 1)
        )
        total_bound = theorem_bound(k, ell, m)
        bound_held = total_size <= total_bound and all(
            size <= bound for size, bound in zip(layer_sizes, layer_bounds)
        )
        if verify_freeness:
            patterns = [gen_k_star(k), gen_s_star(ell), gen_path(m)]
            freeness_checked = bool(is_free(graph, patterns))

    report = BoundReport(
        root=root,
        layer_sizes=tuple(layer_sizes),
        total_size=total_size,
        k=k,
        ell=ell,
        m=m,
        layer_bounds=layer_bounds,
        total_bound=total_bound,
        bound_held=bound_held,
        freeness_checked=freeness_checked,
    )
    return frozenset(dominating), report


# ---------------------------------------------------------------------------
# Witness extraction: when a layer bound fails, produce the induced K*_k or
# S*_ell that the bound's proof says must exist.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForbiddenWitness:
    """An induced K*_size ("kstar") or S*_size ("sstar") found in the host."""

    shape: str  # "kstar" | "sstar"
    size: int
    embedding: Embedding


def _checked_witness(
    graph: Graph, shape: str, size: int, mapping: tuple[int, ...]
) -> ForbiddenWitness:
    witness = ForbiddenWitness(shape, size, Embedding(mapping))
    pattern = gen_k_star(size) if shape == "kstar" else gen_s_star(size)
    if not verify_embedding(graph, pattern, witness.embedding):
        raise WitnessContradictionError(
            f"assembled {shape} witness is not a valid induced embedding; "
            "this indicates a bug in the extraction logic"
        )
    return witness


def _kstar_witness(
    graph: Graph, clique: frozenset[int], pendant_of: dict[int, int]
) -> ForbiddenWitness:
    """K*_k embedding from a clique whose members have pairwise-private pendants."""
    members = sorted(clique)
    mapping = tuple(members) + tuple(pendant_of[u] for u in members)
    return _checked_witness(graph, "kstar", len(members), mapping)


def _sstar_witness(graph: Graph, center: int, legs: list[tuple[int, int]]) -> ForbiddenWitness:
    """S*_ell embedding from a center and (middle, tip) legs, sorted by middle."""
    legs = sorted(legs)
    mapping = (center,) + tuple(mid for mid, _ in legs) + tuple(tip for _, tip in legs)
    return _checked_witness(graph, "sstar", len(legs), mapping)


def _contradiction(stage: str) -> WitnessContradictionError:
    return WitnessContradictionError(
        f"layer bound exceeded but {stage}; "
        "this would falsify the implementation, not the underlying theorem"
    )


def _pigeonhole(
    graph: Graph, centres: Iterable[int], members: Iterable[int], need: int, target: str
) -> tuple[int, list[int]]:
    """The lowest of centres adjacent to at least need of members, with those
    members ascending; a contradiction naming target when there is none."""
    members_mask = sum(1 << v for v in members)
    for centre in sorted(centres):
        attached = _members(graph.masks[centre] & members_mask)
        if len(attached) >= need:
            return centre, attached
    raise _contradiction(f"no pigeonhole vertex reaches {target}")


def _u_overflow_witness(
    graph: Graph,
    layers: LayerDecomposition,
    i: int,
    k: int,
    ell: int,
    x_set: frozenset[int],
    u_set: frozenset[int],
) -> Optional[ForbiddenWitness]:
    """Induced K*_k or S*_ell forced when U, minimal over x_set, exceeds g(k, ell, i); else None."""
    if len(u_set) <= g_value(k, ell, i):
        return None

    # Overflow: |U| >= R(k, (ell-1)g(i-1)+1). Minimality gives each u in U a
    # private x_u in x_set; the Ramsey dichotomy on U then forces a witness.
    pendant_of = private_neighbors(graph, u_set, x_set)
    independent_size = (ell - 1) * g_value(k, ell, i - 1) + 1
    dichotomy = ramsey_witness(graph, u_set, k, independent_size)
    if dichotomy is None:
        raise _contradiction("the Ramsey dichotomy produced neither set")
    if dichotomy.kind == "clique":
        # The clique plus its private neighbors induces K*_k.
        return _kstar_witness(graph, dichotomy.vertices, pendant_of)

    # Independent branch: dominate the independent set from one layer deeper,
    # then pigeonhole a vertex there adjacent to ell of its members; that
    # vertex, those members, and their privates induce S*_ell. At i - 1 = 1
    # the deeper set is the root alone, within g(k, ell, 1) = 1.
    u2_set = dichotomy.vertices
    deeper = minimal_dominating_subset(graph, layers.layer(i - 2), u2_set)
    witness = _u_overflow_witness(graph, layers, i - 1, k, ell, u2_set, deeper)
    if witness is not None:
        return witness
    u_prime, attached = _pigeonhole(graph, deeper, u2_set, ell, "ell members")
    legs = [(mid, pendant_of[mid]) for mid in attached[:ell]]
    return _sstar_witness(graph, u_prime, legs)


def extract_forbidden_witness(
    graph: Graph,
    layers: LayerDecomposition,
    i: int,
    k: int,
    ell: int,
) -> Optional[ForbiddenWitness]:
    """Run layer i's construction stages and extract a witness on overflow.

    Returns None when both stage bounds hold, i.e. the layer gives no evidence
    against {K*_k, S*_ell}-freeness. Otherwise returns an induced K*_k or
    S*_ell embedding assembled by retracing the bound's proof: private
    neighbors supply pendants, the Ramsey dichotomy picks clique versus
    independent, and the independent branch descends one layer and pigeonholes.
    """
    if k < 1 or ell < 1:
        raise PreconditionError(f"k and ell must be positive, got ({k},{ell})")
    target, x_set, u_set = _stages_x_u(graph, layers, i)
    witness = _u_overflow_witness(graph, layers, i, k, ell, x_set, u_set)
    if witness is not None:
        return witness

    residual, x0_set = _stage_x0(graph, target, x_set, u_set)
    if len(x0_set) <= (ramsey_upper(k, ell).bound - 1) * g_value(k, ell, i):
        return None

    # Overflow of the residual stage: some u' in U sees at least R(k, ell)
    # members of X0. Each x in X0 has a private y_x in the residual; on those
    # privates Y the Ramsey dichotomy forces K*_k (clique in Y plus the x's as
    # pendants) or S*_ell (u' as center, the x's as middles, Y as tips).
    pendant_of = private_neighbors(graph, x0_set, residual)
    u_prime, attached = _pigeonhole(
        graph, u_set, x0_set, ramsey_upper(k, ell).bound, "the Ramsey threshold"
    )
    middle_of = {pendant_of[x]: x for x in attached}
    dichotomy = ramsey_witness(graph, frozenset(middle_of), k, ell)
    if dichotomy is None:
        raise _contradiction("the Ramsey dichotomy produced neither set")
    if dichotomy.kind == "clique":
        return _kstar_witness(graph, dichotomy.vertices, middle_of)
    legs = [(middle_of[y], y) for y in dichotomy.vertices]
    return _sstar_witness(graph, u_prime, legs)
