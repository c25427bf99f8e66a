"""Command-line interface: one JSON report per run, deterministic key order.

Exit status is 0 on success, 1 when `verify` finds a failing criterion, and 2
on any input, usage or output error. Reports echo the input graph's canonical
graph6 string so a report alone identifies the instance up to isomorphism.

`main` may be called many times in one process: it builds one parser per
process, on the first call, and looks each handler up by command name. A
handler returns the report body and exit status; `main` alone puts the
"command" key first and writes the report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .bound_engine import (
    BoundReport,
    construct_dominating_set,
    extract_forbidden_witness,
    f_value,
    g_value,
    ramsey_upper,
    theorem_bound,
)
from .corpus import canonical_graph6
from .domination import gamma_exact, is_dominating
from .errors import DomcertError
from .graph_core import (
    Graph,
    bfs_layers,
    gen_complete,
    gen_empty,
    gen_k_star,
    gen_path,
    gen_s_star,
    is_connected,
    min_eccentricity_vertex,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .subgraph import is_free, leq_relation
from .verify import DEFAULT_SEED, SUITE_NAMES, claw_graph, run_suites


class UsageError(DomcertError):
    """Invalid flag combination or malformed command input."""


# Largest input graph: canonical labelling of K_50, the slowest input found,
# takes about 0.5 s, and of K_60 about 1 s (E_n takes half as long).
MAX_VERTICES = 50
# Largest number of search nodes of `gamma`, about a second of search. Inputs
# with n <= 10 need at most a few hundred; erdos_renyi(50, 0.08, Random(0))
# needs about 3.2 million.
GAMMA_NODE_BUDGET = 1_000_000
# Largest --k, --l, --i, --m and --layer of `bounds`, `dominate` and `witness`.
# One layer multiplies the bit length of g by at most about k, so the first f
# past MAX_BOUND_BITS, the only one computed, has at most about 10^6 bits.
MAX_BOUND_PARAM = 128
# Largest bit length of an f value in a report (2467 decimal digits).
# The other values stay within a few bits of it, far below Python's limit of
# 4300 digits on converting an int to a string.
MAX_BOUND_BITS = 8192


# ---------------------------------------------------------------------------
# Input handling
# ---------------------------------------------------------------------------

def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="path to a graph file")
    parser.add_argument("--graph6", help="inline graph6 string")
    parser.add_argument(
        "--format",
        choices=("graph6", "edgelist"),
        default="graph6",
        help="input format (default graph6)",
    )


def _load_graph(args: argparse.Namespace) -> tuple[Graph, dict]:
    if (args.input is None) == (args.graph6 is None):
        raise UsageError("supply exactly one of --input or --graph6")
    if args.graph6 is not None:
        if args.format != "graph6":
            raise UsageError("--graph6 implies --format graph6")
        source, text = "inline", args.graph6
    else:
        source = args.input
        try:
            with open(args.input) as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from exc
    if args.format == "graph6":
        lines = [line for line in text.splitlines() if line.strip()] or [text]
        graph = parse_graph6(lines[0])
    else:
        graph = parse_edge_list(text)
    if graph.n > MAX_VERTICES:
        raise UsageError(f"graph has {graph.n} vertices, above the limit of {MAX_VERTICES}")
    descriptor = {
        "source": source,
        "format": args.format,
        "n": graph.n,
        "canonical_graph6": canonical_graph6(graph),
    }
    return graph, descriptor


# Each family's generator and its vertex count at a given size.
_FAMILIES = {
    "path": (gen_path, lambda size: size),
    "complete": (gen_complete, lambda size: size),
    "empty": (gen_empty, lambda size: size),
    "kstar": (gen_k_star, lambda size: 2 * size),
    "sstar": (gen_s_star, lambda size: 2 * size + 1),
}


def _make_family(family: str, size: Optional[int]) -> Graph:
    """The family's graph of the given size, refused above MAX_VERTICES vertices
    before it is built."""
    if family == "claw":
        if size not in (None, 3):
            raise UsageError("claw has no size parameter")
        return claw_graph()
    if size is None:
        raise UsageError(f"family {family!r} needs --size")
    generate, order = _FAMILIES[family]
    if order(size) > MAX_VERTICES:
        raise UsageError(
            f"{family} of size {size} has {order(size)} vertices, "
            f"above the limit of {MAX_VERTICES}"
        )
    return generate(size)


def _parse_family_list(text: str) -> list[Graph]:
    """Comma-separated family:size tokens, e.g. 'kstar:3,path:5,claw'."""
    graphs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, size_text = token.partition(":")
        if name not in _FAMILIES and name != "claw":
            raise UsageError(f"unknown family {name!r} in {text!r}")
        size = None
        if size_text:
            try:
                size = int(size_text)
            except ValueError as exc:
                raise UsageError(f"bad size in token {token!r}") from exc
        graphs.append(_make_family(name, size))
    if not graphs:
        raise UsageError(f"no families given in {text!r}")
    return graphs


# ---------------------------------------------------------------------------
# Command handlers: each returns (report body, exit status); main adds "command"
# ---------------------------------------------------------------------------

def _check_bound_budget(args, flags: tuple[str, ...], top: int) -> None:
    """Refuse the given flags above MAX_BOUND_PARAM, then f(k, l, i) for 2 <= i <= top
    above MAX_BOUND_BITS, before a handler computes any bound."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value > MAX_BOUND_PARAM:
            raise UsageError(f"--{flag} {value} is above the limit of {MAX_BOUND_PARAM}")
    # Non-positive k or l: left to the handler's own check, which names them.
    if min(args.k, args.l) < 1:
        return
    # Ascending: g(i) is computed from g(i - 1), which has already passed.
    for i in range(2, top + 1):
        if f_value(args.k, args.l, i).bit_length() > MAX_BOUND_BITS:
            raise UsageError(f"f({args.k},{args.l},{i}) has more than {MAX_BOUND_BITS} bits")


def _cmd_gamma(args) -> tuple[dict, int]:
    graph, descriptor = _load_graph(args)
    result = gamma_exact(graph, node_budget=GAMMA_NODE_BUDGET)
    return {
        "input": descriptor,
        "parameters": {},
        "result": {"gamma": result.gamma, "witness": sorted(result.witness)},
    }, 0


def _cmd_free(args) -> tuple[dict, int]:
    graph, descriptor = _load_graph(args)
    k, ell, m = args.k, args.l, args.m
    if k is None and ell is None and m is None:
        raise UsageError("free needs at least one of --k, --l, --m")
    patterns: list[tuple[str, int, Graph]] = []
    for name, size in (("kstar", k), ("sstar", ell), ("path", m)):
        if size is not None:
            patterns.append((name, size, _make_family(name, size)))
    outcome = is_free(graph, [g for _, _, g in patterns])
    result = {
        "free": outcome.free,
        "violated_family": None,
        "violated_size": None,
        "embedding": None,
    }
    if not outcome.free:
        name, size, _ = patterns[outcome.violated_index]
        result["violated_family"] = name
        result["violated_size"] = size
        result["embedding"] = list(outcome.embedding.mapping)
    return {"input": descriptor, "parameters": {"k": k, "l": ell, "m": m}, "result": result}, 0


def _report_bound(bound: BoundReport) -> dict:
    """BoundReport's fields in declaration order, with ell reported as l."""
    return {("l" if name == "ell" else name): value for name, value in vars(bound).items()}


def _cmd_dominate(args) -> tuple[dict, int]:
    graph, descriptor = _load_graph(args)
    k, ell, m = args.k, args.l, args.m
    root = args.root
    # An empty or disconnected graph, or a partial k/l/m, gets the construction's own error.
    if None not in (k, ell, m) and is_connected(graph):
        root = min_eccentricity_vertex(graph) if root is None else root
        _check_bound_budget(args, ("k", "l", "m"), max(m - 2, bfs_layers(graph, root).depth))
    dominating, bound = construct_dominating_set(
        graph,
        root=root,
        k=k,
        ell=ell,
        m=m,
        verify_freeness=args.verify_freeness,
    )
    return {
        "input": descriptor,
        "parameters": {
            "root": args.root,
            "k": k,
            "l": ell,
            "m": m,
            "verify_freeness": args.verify_freeness,
        },
        "result": {
            "dominating_set": sorted(dominating),
            "size": len(dominating),
            "is_dominating": is_dominating(graph, dominating),
        },
        "bound_report": _report_bound(bound),
    }, 0


def _cmd_witness(args) -> tuple[dict, int]:
    graph, descriptor = _load_graph(args)
    root = args.root if args.root is not None else min_eccentricity_vertex(graph)
    layers = bfs_layers(graph, root)
    _check_bound_budget(args, ("k", "l", "layer"), args.layer)
    witness = extract_forbidden_witness(graph, layers, args.layer, args.k, args.l)
    witnesses = []
    if witness is not None:
        witnesses.append(
            {
                "shape": witness.shape,
                "size": witness.size,
                "embedding": list(witness.embedding.mapping),
            }
        )
    return {
        "input": descriptor,
        "parameters": {"root": root, "layer": args.layer, "k": args.k, "l": args.l},
        "result": {"found": witness is not None},
        "witnesses": witnesses,
    }, 0


def _cmd_leq(args) -> tuple[dict, int]:
    first = _parse_family_list(args.first)
    second = _parse_family_list(args.second)
    holds = leq_relation(first, second)
    return {
        "input": None,
        "parameters": {"first": args.first, "second": args.second},
        "result": {"holds": holds},
    }, 0


def _cmd_bounds(args) -> tuple[dict, int]:
    if (args.i is None) == (args.m is None):
        raise UsageError("bounds needs exactly one of --i or --m")
    _check_bound_budget(args, ("k", "l", "i", "m"), args.i if args.i is not None else args.m - 2)
    # A copy: ramsey_upper's instances are cached and shared.
    ramsey_obj = dict(vars(ramsey_upper(args.k, args.l)))
    if args.i is not None:
        result = {
            "ramsey": ramsey_obj,
            "i": args.i,
            "g": g_value(args.k, args.l, args.i),
            "f": f_value(args.k, args.l, args.i) if args.i >= 2 else None,
        }
        parameters = {"k": args.k, "l": args.l, "i": args.i, "m": None}
    else:
        rows = [
            {"i": i, "g": g_value(args.k, args.l, i), "f": f_value(args.k, args.l, i)}
            for i in range(2, args.m - 1)
        ]
        result = {
            "ramsey": ramsey_obj,
            "theorem_bound": theorem_bound(args.k, args.l, args.m),
            "rows": rows,
        }
        parameters = {"k": args.k, "l": args.l, "i": None, "m": args.m}
    return {"input": None, "parameters": parameters, "result": result}, 0


def _cmd_gen(args) -> tuple[dict, int]:
    graph = _make_family(args.family, args.size)
    return {
        "input": None,
        "parameters": {"family": args.family, "size": args.size},
        "result": {"n": graph.n, "graph6": to_graph6(graph)},
    }, 0


def _cmd_verify(args) -> tuple[dict, int]:
    names = args.suite if args.suite else None
    try:
        results = run_suites(names, seed=args.seed)
    except FileNotFoundError as exc:
        raise UsageError(f"fixture corpus missing: {exc}") from exc
    failed = [r.name for r in results if not r.passed]
    return {
        "input": None,
        "parameters": {
            "suites": list(names) if names else list(SUITE_NAMES),
            "seed": args.seed,
        },
        "result": {"passed": not failed, "failed": failed},
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }, 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domcert",
        description="Dominating sets with certified size bounds and "
        "forbidden-subgraph witnesses.",
    )
    parser.add_argument("--output", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="exact domination number")
    _add_graph_options(p)

    p = sub.add_parser("free", help="induced-freeness of K*_k, S*_l, P_m")
    _add_graph_options(p)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)

    p = sub.add_parser("dominate", help="layered dominating-set construction")
    _add_graph_options(p)
    p.add_argument("--root", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--verify-freeness", action="store_true")

    p = sub.add_parser("witness", help="extract a forbidden-subgraph witness")
    _add_graph_options(p)
    p.add_argument("--root", type=int)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = sub.add_parser("leq", help="order between forbidden families")
    p.add_argument("--first", required=True, help="e.g. 'kstar:2,sstar:2,path:5'")
    p.add_argument("--second", required=True)

    p = sub.add_parser("bounds", help="bound-function table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--m", type=int)

    p = sub.add_parser("gen", help="emit a named family graph")
    p.add_argument("--family", required=True, choices=(*_FAMILIES, "claw"))
    p.add_argument("--size", type=int)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", action="append", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def _emit(report: dict, output: Optional[str]) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built by the first `main` call."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        body, status = globals()[f"_cmd_{args.command}"](args)
        _emit({"command": args.command, **body}, args.output)
    except (DomcertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
