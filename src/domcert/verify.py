"""Named verification suites: exact identities and properties over corpora.

Each suite checks one verifiable claim end to end: closed-form domination
numbers for the named families, classical bounds over the exhaustive corpus,
the Ramsey dichotomy at the R(3,3) threshold, soundness of the layered
construction on sampled free graphs, witness extraction on engineered
violations, and oracle equivalence of the two independent solver routes.

Suites are deterministic for a fixed seed; sampled corpora derive their seeds
from the top-level one so reports are replayable byte for byte.

A battery (one ``run_suites`` call) parses the packaged corpus at most once,
on the first suite that reads it, and shares it among its suites; it is
released when the battery returns.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bound_engine import (
    construct_dominating_set,
    extract_forbidden_witness,
    f_value,
    g_value,
    ramsey_witness,
    theorem_bound,
)
from .corpus import (
    CORPUS_MAX_N,
    all_labeled_graphs,
    erdos_renyi,
    load_fixture_corpus,
    sample_free_connected,
)
from .domination import (
    gamma_brute_force,
    gamma_exact,
    independence_number,
    is_dominating,
    is_independent,
    maximal_independent_subset,
)
from .errors import DomcertError
from .graph_core import (
    Graph,
    bfs_layers,
    from_edge_list,
    gen_k_star,
    gen_path,
    gen_s_star,
    is_connected,
    parse_graph6,
    to_graph6,
)
from .subgraph import contains_induced, induced_subgraph_brute, is_free, verify_embedding

DEFAULT_SEED = 2023

CLAW_CONFIGS_9 = ((9, 0.7), (9, 0.8), (9, 0.85), (9, 0.9))
CLAW_CONFIGS_10 = ((10, 0.7), (10, 0.8), (10, 0.85), (10, 0.9))
# Mixed sizes and densities with usable acceptance rates for each pattern set.
THEOREM_A_CONFIGS = ((4, 0.4), (5, 0.5), (6, 0.5), (7, 0.6), (8, 0.7), (9, 0.8))
THEOREM_B_CONFIGS = ((4, 0.4), (5, 0.4), (6, 0.5), (7, 0.5), (8, 0.5), (9, 0.6))

SAMPLE_COUNT = 1000


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


class _BatteryCorpus:
    """The packaged corpus for one battery: parsed on the first read, then kept.

    Calling it returns the graphs with at most max_n vertices, in fixture
    order, as a fresh list that the caller may extend.
    """

    def __init__(self) -> None:
        self._grouped: Optional[dict[int, list[Graph]]] = None

    def __call__(self, max_n: int = CORPUS_MAX_N) -> list[Graph]:
        if self._grouped is None:
            self._grouped = load_fixture_corpus()
        return [g for n in sorted(self._grouped) if n <= max_n for g in self._grouped[n]]


def claw_graph() -> Graph:
    """K_{1,3}: one center joined to three leaves."""
    return from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


def _salt(seed: int, tag: int) -> int:
    return seed * 1009 + tag


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _suite_paths(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    slow = 0
    for n in range(1, 31):
        start = time.monotonic()
        got = gamma_exact(gen_path(n)).gamma
        elapsed = time.monotonic() - start
        if got != ceil_div(n, 3):
            return CriterionResult(
                "paths", False, f"path on {n} vertices gave {got}, expected {ceil_div(n, 3)}"
            )
        if elapsed >= 1.0:
            slow += 1
    if slow:
        return CriterionResult("paths", False, f"{slow} instances took 1s or longer")
    return CriterionResult("paths", True, "gamma(P_n) = ceil(n/3) for n = 1..30, each under 1s")


def _suite_families(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    for n in range(1, 9):
        for gen, label in ((gen_k_star, "K*"), (gen_s_star, "S*")):
            got = gamma_exact(gen(n)).gamma
            if got != n:
                return CriterionResult(
                    "families", False, f"gamma({label}_{n}) = {got}, expected {n}"
                )
    return CriterionResult(
        "families", True, "gamma(K*_n) = gamma(S*_n) = n for n = 1..8"
    )


def _suite_ore(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    checked = 0
    for graph in corpus():
        if graph.n < 2:
            continue
        checked += 1
        if gamma_exact(graph).gamma > graph.n // 2:
            return CriterionResult(
                "ore", False, f"gamma exceeds n/2 on {to_graph6(graph)}"
            )
    return CriterionResult(
        "ore", True, f"gamma <= floor(n/2) on all {checked} connected graphs, 2 <= n <= 8"
    )


def _suite_ckshep(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    patterns = [claw_graph(), gen_k_star(3)]
    exhaustive = [g for g in corpus() if is_free(g, patterns)]
    sampled = sample_free_connected(
        SAMPLE_COUNT, CLAW_CONFIGS_9, patterns, _salt(seed, 9)
    )
    sampled += sample_free_connected(
        SAMPLE_COUNT, CLAW_CONFIGS_10, patterns, _salt(seed, 10)
    )
    for graph in exhaustive + sampled:
        if gamma_exact(graph).gamma > ceil_div(graph.n, 3):
            return CriterionResult(
                "ckshep", False, f"gamma exceeds ceil(n/3) on {to_graph6(graph)}"
            )
    return CriterionResult(
        "ckshep",
        True,
        f"gamma <= ceil(n/3) on {len(exhaustive)} exhaustive plus "
        f"{len(sampled)} sampled claw-and-pendant-triangle-free graphs",
    )


def _check_soundness(
    graphs: Sequence[Graph], k: int, ell: int, m: int
) -> Optional[str]:
    cap = theorem_bound(k, ell, m)
    for graph in graphs:
        dominating, report = construct_dominating_set(graph, k=k, ell=ell, m=m)
        if not is_dominating(graph, dominating):
            return f"output fails to dominate {to_graph6(graph)}"
        if len(dominating) > cap or not report.bound_held:
            return f"bound {cap} violated on {to_graph6(graph)}"
        if gamma_exact(graph).gamma > len(dominating):
            return f"gamma exceeds |D| on {to_graph6(graph)}"
    return None


def _suite_soundness(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    corpus_a = sample_free_connected(
        SAMPLE_COUNT,
        THEOREM_A_CONFIGS,
        [gen_k_star(3), gen_s_star(2), gen_path(5)],
        _salt(seed, 5),
    )
    failure = _check_soundness(corpus_a, 3, 2, 5)
    if failure is None:
        corpus_b = sample_free_connected(
            SAMPLE_COUNT,
            THEOREM_B_CONFIGS,
            [gen_k_star(3), gen_s_star(3), gen_path(6)],
            _salt(seed, 6),
        )
        failure = _check_soundness(corpus_b, 3, 3, 6)
    if failure is not None:
        return CriterionResult("soundness", False, failure)
    return CriterionResult(
        "soundness",
        True,
        f"construction dominates within theorem_bound on {2 * SAMPLE_COUNT} "
        "sampled free graphs (two parameter triples)",
    )


def _suite_independence(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    graphs = corpus()
    for graph in graphs:
        independent = maximal_independent_subset(graph, range(graph.n))
        if not is_dominating(graph, independent):
            return CriterionResult(
                "independence",
                False,
                f"maximal independent set fails to dominate {to_graph6(graph)}",
            )
        alpha = independence_number(graph)
        for k in range(2, 5):
            if alpha < k and gamma_exact(graph).gamma > k - 1:
                return CriterionResult(
                    "independence",
                    False,
                    f"alpha < {k} but gamma > {k - 1} on {to_graph6(graph)}",
                )
    return CriterionResult(
        "independence",
        True,
        f"maximal independent sets dominate and alpha < k forces gamma <= k-1 "
        f"on all {len(graphs)} corpus graphs",
    )


def _suite_ramsey(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    count = 0
    for graph in all_labeled_graphs(6):
        count += 1
        witness = ramsey_witness(graph, range(6), 3, 3)
        if witness is None:
            return CriterionResult(
                "ramsey", False, f"no dichotomy on {to_graph6(graph)}"
            )
        members = witness.vertices
        if len(members) != 3:
            return CriterionResult("ramsey", False, "witness has wrong size")
        ms = sorted(members)
        if witness.kind == "clique":
            good = all(graph.has_edge(u, v) for u in ms for v in ms if u < v)
        else:
            good = is_independent(graph, ms)
        if not good:
            return CriterionResult(
                "ramsey", False, f"invalid witness on {to_graph6(graph)}"
            )
    return CriterionResult(
        "ramsey",
        True,
        f"clique-or-independent triple found and verified on all {count} "
        "labeled graphs with 6 vertices",
    )


def violation_suite() -> list[tuple[Graph, int, int, int, int, str, int]]:
    """Engineered bound violations: (host, root, layer, k, ell, shape, size).

    Spider hosts need enough legs to push the layer-2 dominator count past its
    threshold, hence leg counts 3, 6, 9 for ell = 2, 3, 4 with k = 3; the
    pendant-rooted K*_n hosts violate at layer 3 for k = n-1, ell = 1, where
    g vanishes and the clique branch fires.
    """
    cases: list[tuple[Graph, int, int, int, int, str, int]] = []
    for ell, legs in ((2, 3), (3, 6), (4, 9)):
        cases.append((gen_s_star(legs), 0, 2, 3, ell, "sstar", ell))
    for n in (3, 4, 5):
        cases.append((gen_k_star(n), n, 3, n - 1, 1, "kstar", n - 1))
    return cases


def _suite_witness(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    for host, root, layer, k, ell, shape, size in violation_suite():
        witness = extract_forbidden_witness(host, bfs_layers(host, root), layer, k, ell)
        if witness is None or witness.shape != shape or witness.size != size:
            return CriterionResult(
                "witness",
                False,
                f"expected {shape}_{size} from {to_graph6(host)} at layer {layer}",
            )
        pattern = gen_k_star(size) if shape == "kstar" else gen_s_star(size)
        if not verify_embedding(host, pattern, witness.embedding):
            return CriterionResult(
                "witness", False, f"embedding fails re-validation on {to_graph6(host)}"
            )
    sampled = sample_free_connected(
        SAMPLE_COUNT,
        THEOREM_A_CONFIGS,
        [gen_k_star(3), gen_s_star(2)],
        _salt(seed, 8),
    )
    for graph in sampled:
        layers = bfs_layers(graph, 0)
        for i in range(2, layers.depth + 1):
            if extract_forbidden_witness(graph, layers, i, 3, 2) is not None:
                return CriterionResult(
                    "witness",
                    False,
                    f"spurious witness on free graph {to_graph6(graph)} layer {i}",
                )
    return CriterionResult(
        "witness",
        True,
        f"6 engineered violations yield re-validated embeddings; "
        f"{len(sampled)} sampled free graphs yield none at any layer",
    )


def _suite_bound_table(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    checks = []
    for i in range(1, 7):
        checks.append((g_value(2, 2, i), 1, f"g(2,2,{i})"))
    for i in range(2, 7):
        checks.append((f_value(2, 2, i), 2, f"f(2,2,{i})"))
    checks.append((g_value(3, 3, 2), 5, "g(3,3,2)"))
    checks.append((f_value(3, 3, 2), 30, "f(3,3,2)"))
    checks.append((theorem_bound(2, 2, 5), 5, "theorem_bound(2,2,5)"))
    for k, ell in ((1, 1), (2, 3), (3, 2), (4, 4)):
        checks.append((theorem_bound(k, ell, 3), 1, f"theorem_bound({k},{ell},3)"))
    for got, want, label in checks:
        if got != want:
            return CriterionResult(
                "bound-table", False, f"{label} = {got}, expected {want}"
            )
    return CriterionResult(
        "bound-table", True, f"{len(checks)} hand-derived recursion values match"
    )


def _oracle_hosts(seed: int, corpus: _BatteryCorpus) -> list[Graph]:
    hosts = corpus(6)
    by_n: dict[int, list[Graph]] = {}
    for g in corpus():
        by_n.setdefault(g.n, []).append(g)
    hosts += by_n.get(7, [])[:20] + by_n.get(8, [])[:10]
    rng = random.Random(_salt(seed, 99))
    added = 0
    while added < 5:
        candidate = erdos_renyi(9, 0.5, rng)
        if is_connected(candidate):
            hosts.append(candidate)
            added += 1
    return hosts


def _suite_oracles(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    gamma_checked = 0
    for graph in corpus(7):
        gamma_checked += 1
        if gamma_exact(graph).gamma != gamma_brute_force(graph).gamma:
            return CriterionResult(
                "oracles", False, f"gamma mismatch on {to_graph6(graph)}"
            )
    hosts = _oracle_hosts(seed, corpus)
    patterns = corpus(5)
    pair_count = 0
    for host in hosts:
        for pattern in patterns:
            pair_count += 1
            fast = contains_induced(host, pattern)
            slow = induced_subgraph_brute(host, pattern)
            if (fast is None) != (slow is None):
                return CriterionResult(
                    "oracles",
                    False,
                    f"containment mismatch: host {to_graph6(host)} "
                    f"pattern {to_graph6(pattern)}",
                )
            if fast is not None and not verify_embedding(host, pattern, fast):
                return CriterionResult(
                    "oracles", False, f"invalid embedding on host {to_graph6(host)}"
                )
    return CriterionResult(
        "oracles",
        True,
        f"two gamma routes agree on {gamma_checked} graphs; two containment "
        f"routes agree on {pair_count} host/pattern pairs",
    )


def _suite_roundtrip(seed: int, corpus: _BatteryCorpus) -> CriterionResult:
    count = 0
    for graph in corpus():
        count += 1
        encoded = to_graph6(graph)
        back = parse_graph6(encoded)
        if back.n != graph.n or back.adj != graph.adj:
            return CriterionResult("roundtrip", False, f"round-trip broke {encoded}")
    truncated = parse_graph6("D?")
    if truncated.n != 5 or truncated.edge_count() != 0:
        return CriterionResult("roundtrip", False, "'D?' did not decode to 5 isolated vertices")
    pair = parse_graph6("A_")
    if pair.n != 2 or pair.edges() != [(0, 1)]:
        return CriterionResult("roundtrip", False, "'A_' did not decode to a single edge")
    return CriterionResult(
        "roundtrip",
        True,
        f"{count} corpus graphs round-trip; 'D?' and 'A_' decode as documented",
    )


_SUITES: dict[str, Callable[[int, _BatteryCorpus], CriterionResult]] = {
    "paths": _suite_paths,
    "families": _suite_families,
    "ore": _suite_ore,
    "ckshep": _suite_ckshep,
    "soundness": _suite_soundness,
    "independence": _suite_independence,
    "ramsey": _suite_ramsey,
    "witness": _suite_witness,
    "bound-table": _suite_bound_table,
    "oracles": _suite_oracles,
    "roundtrip": _suite_roundtrip,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str, seed: int = DEFAULT_SEED, corpus: Optional[_BatteryCorpus] = None
) -> CriterionResult:
    """Run one named suite; unknown names raise DomcertError.

    Without a corpus from its battery, the suite parses the packaged corpus
    itself if it reads it.
    """
    if name not in _SUITES:
        raise DomcertError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    return _SUITES[name](seed, corpus if corpus is not None else _BatteryCorpus())


def run_suites(
    names: Optional[Sequence[str]] = None, seed: int = DEFAULT_SEED
) -> list[CriterionResult]:
    """Run the named suites (default: all) in declaration order, parsing the
    packaged corpus at most once for all of them."""
    selected = SUITE_NAMES if names is None else tuple(names)
    corpus = _BatteryCorpus()
    return [run_suite(name, seed, corpus) for name in selected]
