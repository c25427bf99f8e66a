"""Span tracer that wraps domcert's public functions from outside the package.

Every call of a wrapped function records one span: its name, start, end and
the span that was open when it began (its parent).  Spans live in flat arrays
while the run goes on and are written to disk once, when it ends.  A span's
self time is its duration minus the time covered by its direct children;
calls stay strictly nested because the package is single-threaded.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each public
function at every ``domcert`` module namespace that binds it, so calls made
through ``from .graph_core import bfs_layers`` in another module are caught
as well as calls made through the defining module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("graph_core", "corpus", "subgraph", "domination", "bound_engine", "verify", "cli")

# Leaves called millions of times per verify pass (verify_embedding about 5M
# times in `oracles`, is_independent once per subset in `independence`); a
# wrapper would cost more than their bodies.  Their time stays in the
# caller's self time.
UNWRAPPED = frozenset(
    {
        "subgraph.verify_embedding",
        "graph_core.closed_neighborhood",
        "domination.is_independent",
    }
)

# Span name gets the call's first argument appended, e.g. verify.run_suite.ore.
TAGGED = frozenset({"verify.run_suite"})

# Per-call outcome summed per function, for ratios of useful work to attempts.
OUTCOMES = {
    "subgraph.contains_induced": lambda result: result is not None,
    "bound_engine.extract_forbidden_witness": lambda result: result is not None,
    "corpus.sample_free_connected": len,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome: dict[str, int] = {}
        self._open = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, func):
        nid = self._id(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open
        )
        clock = time.perf_counter
        tagged = name in TAGGED
        outcome = OUTCOMES.get(name)
        totals = self.outcome

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(self._id(f"{name}.{args[0]}") if tagged else nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if outcome is not None:
                totals[name] = totals.get(name, 0) + outcome(result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of every layer; returns the bindings replaced."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"domcert.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not callable(obj)
                    or inspect.isclass(obj)
                    or inspect.isgeneratorfunction(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
        bindings = 0
        for modname, module in list(sys.modules.items()):
            if modname != "domcert" and not modname.startswith("domcert."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    bindings += 1
        return bindings

    def clear(self) -> None:
        """Drop every span and outcome; the installed wrappers keep recording."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.outcome.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its direct children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        return own

    def aggregate(self, own: list[float]) -> dict[str, list]:
        """Per span name: [calls, self seconds, total seconds]."""
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for idx, nid in enumerate(self.name_id):
            entry = stats[self.names[nid]]
            entry[0] += 1
            entry[1] += own[idx]
            entry[2] += self.end[idx] - self.start[idx]
        return stats

    def children_of(self, child: str, parent: str) -> list[int]:
        """Indices, in start order, of spans named child whose parent is named parent."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return []
        return [
            idx
            for idx, (nid, p) in enumerate(zip(self.name_id, self.parent))
            if nid == cid and p >= 0 and self.name_id[p] == pid
        ]

    def count_under(self, child: str, ancestor: str) -> int:
        """Spans named child with a span named ancestor somewhere above them."""
        cid, aid = self._ids.get(child), self._ids.get(ancestor)
        if cid is None or aid is None:
            return 0
        count = 0
        for idx, nid in enumerate(self.name_id):
            if nid != cid:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path: str) -> None:
        """One JSON header line naming the arrays, then the arrays as raw bytes."""
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": [
                ["name_id", self.name_id.typecode],
                ["parent", self.parent.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(handle)


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans.  PER_LAYER is the full list, in
# order, that a traced run reports on every workload (zero where unused).
# ---------------------------------------------------------------------------

SUITES = (
    "paths", "families", "ore", "ckshep", "soundness", "independence",
    "ramsey", "witness", "bound-table", "oracles", "roundtrip",
)

_CALLS_AND_SELF = (
    "corpus.canonical_graph6", "corpus.load_fixture_corpus",
    "subgraph.contains_induced", "subgraph.induced_subgraph_brute", "subgraph.is_free",
    "domination.gamma_exact", "domination.gamma_brute_force", "domination.independence_number",
    "domination.minimal_dominating_subset", "domination.maximal_independent_subset",
    "domination.private_neighbors", "domination.is_dominating",
    "graph_core.min_eccentricity_vertex", "graph_core.bfs_layers", "graph_core.parse_graph6",
    "graph_core.to_graph6", "graph_core.from_edge_list", "graph_core.is_connected",
    "bound_engine.construct_dominating_set", "bound_engine.dominate_layer",
    "bound_engine.ramsey_witness", "bound_engine.extract_forbidden_witness",
)
_SELF_ONLY = ("cli.build_parser", "cli.main", "corpus.sample_free_connected")

PER_LAYER = (
    [(f"{fn}.self_s", "s", "lower") for fn in _SELF_ONLY]
    + [(f"{fn}.{kind}", unit, "lower") for fn in _CALLS_AND_SELF
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("corpus.canonical_graph6.leaves", "count", "lower"),
        ("corpus.sample_free_connected.draws", "count", "lower"),
        ("corpus.sample_free_connected.accept_ratio", "ratio", "higher"),
        ("subgraph.contains_induced.hit_ratio", "ratio", "higher"),
        ("bound_engine.extract_forbidden_witness.found_ratio", "ratio", "higher"),
        ("bound_engine.stage_X.self_s", "s", "lower"),
        ("bound_engine.stage_U.self_s", "s", "lower"),
        ("bound_engine.stage_X0.self_s", "s", "lower"),
        ("verify.run_suite.calls", "count", "lower"),
    ]
    + [(f"verify.run_suite.{suite}.s", "s", "lower") for suite in SUITES]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER value from one traced pass."""
    own = tracer.self_times()
    stats = tracer.aggregate(own)
    empty = [0, 0.0, 0.0]
    values: dict[str, float] = {}
    for fn in _SELF_ONLY + _CALLS_AND_SELF:
        calls, self_s, _ = stats.get(fn, empty)
        values[f"{fn}.calls"] = calls
        values[f"{fn}.self_s"] = self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    draws = len(tracer.children_of("corpus.erdos_renyi", "corpus.sample_free_connected"))
    values["corpus.canonical_graph6.leaves"] = len(
        tracer.children_of("graph_core.to_graph6", "corpus.canonical_graph6")
    )
    values["corpus.sample_free_connected.draws"] = draws
    values["corpus.sample_free_connected.accept_ratio"] = ratio(
        tracer.outcome.get("corpus.sample_free_connected", 0), draws
    )
    for fn, key in (
        ("subgraph.contains_induced", "hit_ratio"),
        ("bound_engine.extract_forbidden_witness", "found_ratio"),
    ):
        values[f"{fn}.{key}"] = ratio(tracer.outcome.get(fn, 0), values[f"{fn}.calls"])

    # Stages of dominate_layer: X is its maximal_independent_subset child; U and
    # X0 are its first and second minimal_dominating_subset children.
    values["bound_engine.stage_X.self_s"] = sum(
        own[i] for i in tracer.children_of("domination.maximal_independent_subset", "bound_engine.dominate_layer")
    )
    stage_u = stage_x0 = 0.0
    seen_parent: set[int] = set()
    for i in tracer.children_of("domination.minimal_dominating_subset", "bound_engine.dominate_layer"):
        p = tracer.parent[i]
        if p in seen_parent:
            stage_x0 += own[i]
        else:
            seen_parent.add(p)
            stage_u += own[i]
    values["bound_engine.stage_U.self_s"] = stage_u
    values["bound_engine.stage_X0.self_s"] = stage_x0

    values["verify.run_suite.calls"] = sum(
        stats.get(f"verify.run_suite.{suite}", empty)[0] for suite in SUITES
    )
    for suite in SUITES:
        values[f"verify.run_suite.{suite}.s"] = stats.get(f"verify.run_suite.{suite}", empty)[2]
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: values[name] for name, _, _ in PER_LAYER}


def call_counts(tracer: Tracer) -> dict[str, int]:
    """Calls per span name plus the summed outcomes; equal runs give equal counts."""
    counts: dict[str, int] = {}
    for nid in tracer.name_id:
        name = tracer.names[nid]
        counts[name] = counts.get(name, 0) + 1
    for name, total in tracer.outcome.items():
        counts[f"{name}:outcome"] = total
    return dict(sorted(counts.items()))
