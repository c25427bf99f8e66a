"""domcert: dominating sets with certified size bounds on restricted graphs.

For connected graphs that exclude a pendant-clique K*_k, a two-step spider
S*_ell, and a path P_m as induced subgraphs, the domination number is bounded
by a function of (k, ell, m) alone. This package computes that bound, builds a
dominating set that meets it layer by layer, and, when a layer overflows its
bound, extracts the induced K*_k or S*_ell that must be present.

Alongside the construction it ships exact solvers (domination number, induced
containment, clique/independent dichotomy), small-graph corpora, and a CLI.
"""

from .bound_engine import (
    BoundReport,
    ForbiddenWitness,
    RamseyValue,
    RamseyWitness,
    construct_dominating_set,
    dominate_layer,
    extract_forbidden_witness,
    f_value,
    g_value,
    ramsey_upper,
    ramsey_witness,
    theorem_bound,
)
from .corpus import (
    canonical_graph6,
    corpus_graphs,
    enumerate_connected_graphs,
    load_fixture_corpus,
    sample_free_connected,
)
from .domination import (
    GammaResult,
    gamma_brute_force,
    gamma_exact,
    independence_number,
    is_dominating,
    is_independent,
    maximal_independent_subset,
    minimal_dominating_subset,
    private_neighbors,
)
from .errors import (
    DisconnectedGraphError,
    DomcertError,
    EdgeListFormatError,
    Graph6FormatError,
    GraphConstructionError,
    PreconditionError,
    SearchBudgetError,
    WitnessContradictionError,
)
from .graph_core import (
    Graph,
    LayerDecomposition,
    bfs_layers,
    closed_neighborhood,
    eccentricity,
    from_edge_list,
    gen_complete,
    gen_empty,
    gen_k_star,
    gen_path,
    gen_s_star,
    is_connected,
    min_eccentricity_vertex,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)
from .subgraph import (
    Embedding,
    FreenessResult,
    contains_induced,
    induced_subgraph_brute,
    is_free,
    leq_relation,
    verify_embedding,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DisconnectedGraphError",
    "DomcertError",
    "EdgeListFormatError",
    "Embedding",
    "ForbiddenWitness",
    "FreenessResult",
    "GammaResult",
    "Graph",
    "Graph6FormatError",
    "GraphConstructionError",
    "LayerDecomposition",
    "PreconditionError",
    "RamseyValue",
    "RamseyWitness",
    "SearchBudgetError",
    "WitnessContradictionError",
    "bfs_layers",
    "canonical_graph6",
    "closed_neighborhood",
    "construct_dominating_set",
    "contains_induced",
    "corpus_graphs",
    "dominate_layer",
    "eccentricity",
    "enumerate_connected_graphs",
    "extract_forbidden_witness",
    "f_value",
    "from_edge_list",
    "g_value",
    "gamma_brute_force",
    "gamma_exact",
    "gen_complete",
    "gen_empty",
    "gen_k_star",
    "gen_path",
    "gen_s_star",
    "independence_number",
    "induced_subgraph_brute",
    "is_connected",
    "is_dominating",
    "is_free",
    "is_independent",
    "leq_relation",
    "load_fixture_corpus",
    "maximal_independent_subset",
    "min_eccentricity_vertex",
    "minimal_dominating_subset",
    "parse_edge_list",
    "parse_graph6",
    "private_neighbors",
    "ramsey_upper",
    "ramsey_witness",
    "sample_free_connected",
    "theorem_bound",
    "to_edge_list",
    "to_graph6",
    "verify_embedding",
]
