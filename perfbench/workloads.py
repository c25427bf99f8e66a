"""One workload run in a fresh interpreter: seeded inputs, timed passes, checks.

run.py starts this file as a child process, one workload at a time:

    PYTHONPATH=src python3 perfbench/workloads.py --workload cli-mix --seed 1 --seconds 10 --trace 0

Each workload builds a fixed batch of inputs from the seed before any timing
starts, then repeats timed passes over that batch until --seconds of pass time
have accumulated and at least the workload's MIN_PASSES have run.  Every
output is checked against the package's independent oracles after each pass,
outside the timed region, and every pass must give the same output digest.
With --trace 1 one untraced pass is followed by two traced passes, whose call
counts must agree.  The last line on stdout is one JSON object that run.py
turns into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

import domcert
from domcert import cli
from domcert.corpus import canonical_graph6
from domcert.verify import CLAW_CONFIGS_9, CLAW_CONFIGS_10, claw_graph, violation_suite

from tracer import SUITES, Tracer, call_counts, layer_metrics

OUT_DIR = ".bench_out"  # request input files and span dumps
# Timed passes stop at --seconds, but a run always makes its workload's
# MIN_PASSES and stops adding passes after this much pass time.
PASS_BUDGET_S = 60.0

# ---------------------------------------------------------------------------
# Input encoding, independent of the package's own codecs
# ---------------------------------------------------------------------------

def encode_graph6(n: int, edges) -> str:
    """graph6 text for a graph on 0..n-1 given as (u, v) pairs with u < v."""
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits + (-nbits) % 6)
    for u, v in edges:
        bits[v * (v - 1) // 2 + u] = 1
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    six = iter(bits)
    out.extend(
        63 + (a << 5 | b << 4 | c << 3 | d << 2 | e << 1 | f)
        for a, b, c, d, e, f in zip(six, six, six, six, six, six)
    )
    return out.decode("ascii")


def encode_edge_list(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def relabel(graph, rng: random.Random) -> tuple[list[int], list[tuple[int, int]]]:
    """Random relabelling: new_id[v] for each vertex, and the sorted new edges."""
    new_id = list(range(graph.n))
    rng.shuffle(new_id)
    edges = sorted(
        (min(new_id[u], new_id[v]), max(new_id[u], new_id[v])) for u, v in graph.edges()
    )
    return new_id, edges


def bfs_depth(n: int, edges, root: int) -> int:
    """Eccentricity of root, by a BFS that shares no code with the package."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {root}
    frontier, depth = [root], -1
    while frontier:
        depth += 1
        frontier = [w for v in frontier for w in adj[v] if w not in seen and not seen.add(w)]
    return depth


def family_graph(token: str):
    """Graph for one 'name:size' family token, built from the package generators."""
    name, _, size = token.partition(":")
    if name == "claw":
        return claw_graph()
    gen = {
        "path": domcert.gen_path, "complete": domcert.gen_complete, "empty": domcert.gen_empty,
        "kstar": domcert.gen_k_star, "sstar": domcert.gen_s_star,
    }[name]
    return gen(int(size))


def refinement_classes(graph) -> int:
    """Vertex classes left by colour refinement (1-WL) from a uniform colouring."""
    colour = [0] * graph.n
    while True:
        signature = [
            (colour[v], tuple(sorted(colour[u] for u in graph.adj[v]))) for v in range(graph.n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        if len(palette) == len(set(colour)):
            return len(palette)
        colour = [palette[sig] for sig in signature]


def low_symmetry(graph) -> bool:
    """At most four vertices share a refinement class.

    Canonical labelling has no automorphism pruning, so a randomly drawn graph
    with a large automorphism group costs anywhere from 0.1 ms to 20 s and
    would make the request mix differ wildly between seeds.  Randomly drawn
    cli-mix inputs must pass this test; the expensive symmetric case is
    carried instead by the fixed symmetric share (K_6, K_7, E_7, Petersen).
    """
    return refinement_classes(graph) >= graph.n - 3


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads.  Each has: build inputs in __init__, run_pass() -> raw outputs,
# describe(raw) -> one string per operation, problem(i, text) -> None or why
# operation i is wrong.  Latency samples and vertex counts come from run_pass.
# ---------------------------------------------------------------------------

class Verify:
    """The full battery through the CLI; one request, eleven criteria."""

    MIN_PASSES = 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.argv = ["verify", "--seed", str(seed)]
        # The battery sweeps the packaged corpus; its vertices are the size unit.
        self.vertices = sum(g.n for g in domcert.corpus_graphs())

    def run_pass(self):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(self.argv)
        latency = time.perf_counter() - start
        return [latency], self.vertices, (status, out.getvalue(), err.getvalue())

    def describe(self, raw) -> list[str]:
        status, stdout, stderr = raw
        try:
            report = json.loads(stdout)
            criteria = {c["name"]: c for c in report.pop("criteria")}
        except (ValueError, KeyError, TypeError, AttributeError):
            report, criteria = stdout, {}
        # Each criterion's text carries the rest of the report too, so the
        # digest covers every byte of it.
        return [
            json.dumps([status, stderr, criteria.get(name), report], sort_keys=True)
            for name in SUITES
        ]

    def problem(self, i: int, text: str):
        status, stderr, criterion, _ = json.loads(text)
        if status != 0 or stderr:
            return f"verify exited {status}: {stderr.strip()[:200]}"
        if criterion is None:
            return f"criterion {SUITES[i]} missing from the report"
        if criterion["passed"] is not True:
            return f"criterion {SUITES[i]} failed: {criterion['detail']}"
        return None


class CliMix:
    """A seeded stream of in-process CLI requests with stdout captured."""

    MIN_PASSES = 2

    PARAMS = {
        "free": (["--k", "2", "--l", "2", "--m", "5"], ["--k", "3", "--m", "5"],
                 ["--l", "2", "--m", "6"], ["--k", "3", "--l", "2", "--m", "6"]),
        "dominate": (["--k", "3", "--l", "2", "--m", "5"], ["--k", "3", "--l", "3", "--m", "6"]),
    }
    LEQ = (
        ("kstar:2,sstar:2,path:5", "path:6,claw"),
        ("path:4", "kstar:3,sstar:2"),
        ("claw,kstar:3", "sstar:3,complete:4"),
        ("path:5", "sstar:2"),
        ("sstar:1", "path:4,kstar:2"),
        ("kstar:3,path:6", "empty:3,path:5"),
    )
    # Per pass: (command, how many).  The symmetric inputs are 6% of a pass;
    # K_7, the slowest of them, is 2%, so the 99th percentile lands in the
    # middle of the K_7 requests rather than on the edge of a group.
    MIX = (
        ("gamma", 36), ("free", 36), ("dominate", 30), ("witness", 30),
        ("witness-violation", 6), ("leq", 21), ("bounds", 21),
        ("sym-K7", 4), ("sym-E7", 2), ("sym-K6", 3), ("sym-petersen", 3),
        ("err-disconnected", 4), ("err-empty-layer", 4),
    )
    # Inputs whose automorphisms make canonical labelling expensive:
    # kind -> (graph, command, command flags).
    SYMMETRIC = {
        "sym-K7": lambda: (domcert.gen_complete(7), "gamma", []),
        "sym-E7": lambda: (domcert.gen_empty(7), "gamma", []),
        "sym-K6": lambda: (domcert.gen_complete(6), "free", ["--k", "3", "--l", "2", "--m", "5"]),
        "sym-petersen": lambda: (
            petersen_graph(), "dominate", ["--k", "3", "--l", "3", "--m", "6", "--verify-freeness"]
        ),
    }

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.by_n: dict[int, list] = {}
        for g in domcert.corpus_graphs():
            self.by_n.setdefault(g.n, []).append(g)
        self.sampled = self._sample(16, rng.randrange(1 << 30))
        self.violations = [case for case in violation_suite() if case[0].n <= 10]
        self.originals: list = []  # submitted graphs before relabelling
        self.canon_memo: dict = {}
        self.brute_memo: dict = {}
        kinds = [kind for kind, count in self.MIX for _ in range(count)]
        rng.shuffle(kinds)
        self.requests = [self._request(idx, kind) for idx, kind in enumerate(kinds)]
        # Drop the corpus copy: live objects slow every garbage collection
        # inside the timed requests.
        self.by_n = self.sampled = None

    @staticmethod
    def _sample(count: int, seed: int) -> list:
        """The first count low-symmetry graphs from sample_free_connected (n = 9..10)."""
        draw = 2 * count
        while True:
            pool = domcert.sample_free_connected(
                draw, CLAW_CONFIGS_9 + CLAW_CONFIGS_10, [claw_graph(), domcert.gen_k_star(3)], seed
            )
            pool = [g for g in pool if low_symmetry(g)]
            if len(pool) >= count:
                return pool[:count]
            draw *= 2

    def _pick_graph(self):
        """A corpus graph (n = 4..8) two times in three, else a sampled one (n = 9..10)."""
        if self.rng.random() < 2 / 3:
            graph = None
            while graph is None or not low_symmetry(graph):
                graph = self.rng.choice(self.by_n[self.rng.randint(4, 8)])
            return graph
        return self.rng.choice(self.sampled)

    def _graph_args(self, idx: int, graph):
        """Relabel the graph and deliver it inline, as a graph6 file or as an edge list."""
        rng = self.rng
        key = len(self.originals)
        self.originals.append(graph)
        new_id, edges = relabel(graph, rng)
        route = rng.random()
        if route < 0.6:
            args = ["--graph6", encode_graph6(graph.n, edges)]
        elif route < 0.8:
            path = os.path.join(self.workdir, f"req{idx}.g6")
            with open(path, "w") as handle:
                handle.write(encode_graph6(graph.n, edges) + "\n")
            args = ["--input", path]
        else:
            path = os.path.join(self.workdir, f"req{idx}.txt")
            with open(path, "w") as handle:
                handle.write(encode_edge_list(graph.n, edges))
            args = ["--input", path, "--format", "edgelist"]
        info = {"key": key, "n": graph.n, "edges": edges, "brute": graph.n <= 8}
        return args, new_id, info

    def _request(self, idx: int, kind: str) -> dict:
        rng = self.rng
        if kind == "leq":
            first, second = rng.choice(self.LEQ)
            return {"kind": kind, "argv": ["leq", "--first", first, "--second", second],
                    "exit": 0, "first": first, "second": second}
        if kind == "bounds":
            k, ell = rng.randint(2, 4), rng.randint(2, 4)
            extra = ["--m", str(rng.randint(4, 7))] if rng.random() < 0.5 else ["--i", str(rng.randint(1, 5))]
            return {"kind": kind, "argv": ["bounds", "--k", str(k), "--l", str(ell)] + extra, "exit": 0}
        if kind in self.SYMMETRIC:
            graph, command, params = self.SYMMETRIC[kind]()
            args, _, info = self._graph_args(idx, graph)
            return {"kind": command, "argv": [command] + args + params, "exit": 0,
                    "params": [p for p in params if p != "--verify-freeness"], **info}
        if kind == "witness-violation":
            host, root, layer, k, ell, shape, size = rng.choice(self.violations)
            args, new_id, info = self._graph_args(idx, host)
            argv = ["witness"] + args + ["--root", str(new_id[root]), "--layer", str(layer),
                                         "--k", str(k), "--l", str(ell)]
            return {"kind": "witness", "argv": argv, "exit": 0, "expect": [shape, size],
                    "k": k, "l": ell, **info}
        if kind == "err-disconnected":
            small = [g for n in (2, 3, 4) for g in self.by_n[n]]
            graph = None
            while graph is None or not low_symmetry(graph):
                graph = disjoint_union(rng.choice(small), rng.choice(small))
            args, _, info = self._graph_args(idx, graph)
            return {"kind": kind, "argv": ["dominate"] + args, "exit": 2, **info}

        if kind in ("gamma", "free", "dominate"):
            args, _, info = self._graph_args(idx, self._pick_graph())
            params = rng.choice(self.PARAMS[kind]) if kind in self.PARAMS else []
            extra = ["--verify-freeness"] if kind == "dominate" else []
            return {"kind": kind, "argv": [kind] + args + params + extra, "exit": 0,
                    "params": params, **info}
        # witness / err-empty-layer: a root whose BFS reaches layer 2 or deeper.
        depths = []
        while not any(d >= 2 for d in depths):
            graph = self._pick_graph()
            depths = [bfs_depth(graph.n, graph.edges(), r) for r in range(graph.n)]
        root = rng.choice([r for r in range(graph.n) if depths[r] >= 2])
        k, ell = rng.choice(((2, 2), (3, 2), (3, 3)))
        layer = depths[root] + 1 if kind == "err-empty-layer" else rng.randint(2, depths[root])
        args, new_id, info = self._graph_args(idx, graph)
        argv = ["witness"] + args + ["--root", str(new_id[root]), "--layer", str(layer),
                                     "--k", str(k), "--l", str(ell)]
        return {"kind": kind, "argv": argv, "exit": 2 if kind == "err-empty-layer" else 0,
                "k": k, "l": ell, **info}

    def run_pass(self):
        clock = time.perf_counter
        latencies, outputs, vertices = [], [], 0
        for req in self.requests:
            out, err = io.StringIO(), io.StringIO()
            start = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(req["argv"])
            latencies.append(clock() - start)
            outputs.append((status, out.getvalue(), err.getvalue()))
            vertices += req.get("n", 0)
        return latencies, vertices, outputs

    def describe(self, raw) -> list[str]:
        return [json.dumps(list(item)) for item in raw]

    # Oracles are memoised per original graph: their answers do not depend on
    # the labelling.  Brute-force containment runs only on graphs with n <= 8.

    def _submitted(self, req):
        return domcert.from_edge_list(req["n"], req["edges"])

    def _canonical(self, key):
        if key not in self.canon_memo:
            self.canon_memo[key] = canonical_graph6(self.originals[key])
        return self.canon_memo[key]

    def _brute(self, key, what, compute):
        memo_key = (key, what)
        if memo_key not in self.brute_memo:
            self.brute_memo[memo_key] = compute(self.originals[key])
        return self.brute_memo[memo_key]

    def problem(self, i: int, text: str):
        req = self.requests[i]
        status, stdout, stderr = json.loads(text)
        if status != req["exit"]:
            return f"{req['argv'][0]} exited {status}, expected {req['exit']}: {stderr.strip()[:200]}"
        if req["exit"] != 0:
            return None if not stdout and stderr.startswith("error:") else "error path printed a report"
        if stderr:
            return f"unexpected stderr: {stderr.strip()[:200]}"
        report = json.loads(stdout)
        if "key" in req:
            descriptor = report["input"]
            if descriptor["n"] != req["n"]:
                return "report echoes the wrong vertex count"
            if descriptor["canonical_graph6"] != self._canonical(req["key"]):
                return "canonical_graph6 differs from that of the unrelabelled graph"
        return getattr(self, "_check_" + req["kind"])(req, report["result"], report)

    def _check_gamma(self, req, result, report):
        want = self._brute(req["key"], "gamma", lambda g: domcert.gamma_brute_force(g).gamma)
        if result["gamma"] != want:
            return f"gamma {result['gamma']} but the brute-force oracle gives {want}"
        witness = result["witness"]
        if len(witness) != want or not domcert.is_dominating(self._submitted(req), witness):
            return "gamma witness is not a dominating set of that size"
        return None

    def _patterns(self, params):
        flags = dict(zip(params[::2], params[1::2]))
        out = []
        if "--k" in flags:
            out.append(("kstar", int(flags["--k"]), domcert.gen_k_star(int(flags["--k"]))))
        if "--l" in flags:
            out.append(("sstar", int(flags["--l"]), domcert.gen_s_star(int(flags["--l"]))))
        if "--m" in flags:
            out.append(("path", int(flags["--m"]), domcert.gen_path(int(flags["--m"]))))
        return out

    def _brute_free(self, req):
        """Index of the first pattern the brute-force oracle finds, or None."""
        patterns = self._patterns(req["params"])

        def first_hit(graph):
            for idx, (_, _, pattern) in enumerate(patterns):
                if domcert.induced_subgraph_brute(graph, pattern) is not None:
                    return idx
            return None

        return patterns, self._brute(req["key"], tuple(req["params"]), first_hit)

    def _check_free(self, req, result, report):
        if req["brute"]:
            patterns, hit = self._brute_free(req)
        else:
            patterns, hit = self._patterns(req["params"]), "skip"
        if not result["free"]:
            names = [(name, size) for name, size, _ in patterns]
            pair = (result["violated_family"], result["violated_size"])
            if pair not in names:
                return f"violated family {pair} was not asked for"
            pattern = patterns[names.index(pair)][2]
            embedding = domcert.Embedding(tuple(result["embedding"]))
            if not domcert.verify_embedding(self._submitted(req), pattern, embedding):
                return "free embedding fails verify_embedding"
            if hit != "skip" and hit != names.index(pair):
                return "first violated pattern disagrees with induced_subgraph_brute"
        elif hit not in (None, "skip"):
            return "reported free, but induced_subgraph_brute finds a pattern"
        return None

    def _check_dominate(self, req, result, report):
        dominating = result["dominating_set"]
        graph = self._submitted(req)
        if not domcert.is_dominating(graph, dominating) or result["is_dominating"] is not True:
            return "dominate output is not a dominating set"
        bound = report["bound_report"]
        if result["size"] != len(dominating) or bound["total_size"] < len(dominating):
            return "dominate sizes are inconsistent"
        if req["brute"]:
            _, hit = self._brute_free(req)
            if bound["freeness_checked"] != (hit is None):
                return "freeness_checked disagrees with induced_subgraph_brute"
        return None

    def _check_witness(self, req, result, report):
        witnesses = report["witnesses"]
        if result["found"] != bool(witnesses):
            return "witness flag disagrees with the witness list"
        expect = req.get("expect")
        if expect is not None and not witnesses:
            return "engineered violation produced no witness"
        for w in witnesses:
            if expect is not None and [w["shape"], w["size"]] != expect:
                return f"witness {w['shape']}_{w['size']}, expected {expect}"
            size = req["k"] if w["shape"] == "kstar" else req["l"]
            gen = domcert.gen_k_star if w["shape"] == "kstar" else domcert.gen_s_star
            if w["size"] != size or not domcert.verify_embedding(
                self._submitted(req), gen(size), domcert.Embedding(tuple(w["embedding"]))
            ):
                return "witness embedding fails verify_embedding"
        return None

    def _check_leq(self, req, result, report):
        first = [family_graph(token) for token in req["first"].split(",")]
        second = [family_graph(token) for token in req["second"].split(",")]
        want = all(
            any(domcert.induced_subgraph_brute(h2, h1) is not None for h1 in first)
            for h2 in second
        )
        return None if result["holds"] == want else "leq disagrees with induced_subgraph_brute"

    def _check_bounds(self, req, result, report):
        ramsey = result["ramsey"]["bound"]
        if "rows" in result:
            rows = result["rows"]
            if any(row["f"] != ramsey * row["g"] for row in rows):
                return "f != R(k,l) * g in a bounds row"
            if result["theorem_bound"] != 1 + sum(row["f"] for row in rows):
                return "theorem_bound != 1 + sum of f"
        elif result["i"] >= 2 and result["f"] != ramsey * result["g"]:
            return "f != R(k,l) * g"
        elif result["i"] == 1 and (result["g"] != 1 or result["f"] is not None):
            return "g(1) must be 1 with no f"
        return None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return domcert.from_edge_list(10, outer + inner + [(i, i + 5) for i in range(5)])


def disjoint_union(a, b):
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    return domcert.from_edge_list(a.n + b.n, edges)


class DominateLarge:
    """Library pipeline on seeded sparse connected graphs, n from 10^3 to 2*10^3."""

    MIN_PASSES = 2
    SIZES = (1000, 1500, 2000)
    CONSTRUCT = {"k": 3, "ell": 3, "m": 6}
    WITNESS_PARAMS = ((2, 2), (3, 2))

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.graphs = []
        for n in self.SIZES:
            edges = sparse_connected(n, rng)
            self.graphs.append({"n": n, "edges": edges, "graph6": encode_graph6(n, edges)})
        self.references: dict[int, object] = {}

    def _reference(self, gi: int):
        """The generated graph, built from its edge list rather than its graph6 text."""
        if gi not in self.references:
            spec = self.graphs[gi]
            self.references[gi] = domcert.from_edge_list(spec["n"], spec["edges"])
        return self.references[gi]

    def run_pass(self):
        clock = time.perf_counter
        latencies, outputs, vertices = [], [], 0
        for gi, spec in enumerate(self.graphs):
            start = clock()
            ops = []
            try:
                graph = domcert.parse_graph6(spec["graph6"])
                ops.append(("parse", gi, graph))
                dominating, report = domcert.construct_dominating_set(graph, **self.CONSTRUCT)
                ops.append(("construct", gi, (dominating, report)))
                layers = domcert.bfs_layers(graph, report.root)
                for k, ell in self.WITNESS_PARAMS:
                    for i in range(2, layers.depth + 1):
                        try:
                            witness = domcert.extract_forbidden_witness(graph, layers, i, k, ell)
                        except domcert.DomcertError as exc:
                            witness = exc
                        ops.append(("witness", gi, (i, k, ell, witness)))
            except domcert.DomcertError as exc:
                ops.append(("error", gi, exc))
            latencies.append(clock() - start)
            outputs.extend(ops)
            vertices += spec["n"]
        return latencies, vertices, outputs

    def describe(self, raw) -> list[str]:
        out = []
        layer_sizes: tuple = ()
        for kind, gi, value in raw:
            if kind == "parse":
                text = [kind, gi, value.n, sha(repr(value.edges()))]
            elif kind == "construct":
                dominating, report = value
                layer_sizes = report.layer_sizes
                text = [kind, gi, sorted(dominating), report.root, list(layer_sizes),
                        report.total_size, report.bound_held]
            elif kind == "witness":
                i, k, ell, w = value
                if isinstance(w, Exception):
                    w = repr(w)
                elif w is not None:
                    w = [w.shape, w.size, list(w.embedding.mapping)]
                # The size of the set the construction built for this layer.
                size = layer_sizes[i - 2] if i - 2 < len(layer_sizes) else None
                text = [kind, gi, i, k, ell, w, size]
            else:
                text = [kind, gi, repr(value)]
            out.append(json.dumps(text))
        return out

    def problem(self, i: int, text: str):
        item = json.loads(text)
        kind, gi = item[0], item[1]
        spec = self.graphs[gi]
        graph = self._reference(gi)
        if kind == "error":
            return f"pipeline raised {item[2]}"
        if kind == "parse":
            if item[2] != spec["n"] or item[3] != sha(repr(spec["edges"])):
                return "parse_graph6 does not reproduce the generated graph"
            return None
        if kind == "construct":
            dominating, root, layer_sizes, total, bound_held = item[2:]
            if not domcert.is_dominating(graph, dominating) or root not in dominating:
                return "construction output is not a dominating set containing the root"
            if total < len(dominating) or len(layer_sizes) != bfs_depth(spec["n"], spec["edges"], root) - 1:
                return "construction report is inconsistent with the BFS depth from its root"
            k, ell, m = self.CONSTRUCT["k"], self.CONSTRUCT["ell"], self.CONSTRUCT["m"]
            held = total <= domcert.theorem_bound(k, ell, m) and all(
                size <= domcert.f_value(k, ell, i) for i, size in enumerate(layer_sizes, start=2)
            )
            if bound_held is not held:
                return f"bound_held is {bound_held}, but the sizes against f and the theorem bound give {held}"
            return None
        _, _, layer, k, ell, w, size = item
        if isinstance(w, str):
            return f"witness extraction raised {w}"
        if w is None:
            # Extraction re-runs the layer's construction; a layer set above
            # f(k, l, i) is the overflow from which the theorem forces a witness.
            if size is not None and size > domcert.f_value(k, ell, layer):
                return f"layer {layer} set of size {size} exceeds f({k}, {ell}, {layer}) but no witness came back"
        else:
            shape, w_size, mapping = w
            want = k if shape == "kstar" else ell
            gen = domcert.gen_k_star if shape == "kstar" else domcert.gen_s_star
            if w_size != want or not domcert.verify_embedding(graph, gen(w_size), domcert.Embedding(tuple(mapping))):
                return f"layer {layer} witness fails verify_embedding"
        return None


def sparse_connected(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random spanning tree (Pruefer decoding) plus n/2 random extra edges."""
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = set()
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.add((min(u, v), max(u, v)))
    target = len(edges) + n // 2
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


WORKLOADS = {"verify": Verify, "cli-mix": CliMix, "dominate-large": DominateLarge}


# ---------------------------------------------------------------------------
# Timed passes, checks and the result line
# ---------------------------------------------------------------------------

def timed_pass(workload, memo: dict) -> dict:
    """One pass; its outputs are described and checked after the clock stops."""
    start = time.perf_counter()
    latencies, vertices, raw = workload.run_pass()
    wall = time.perf_counter() - start
    texts = workload.describe(raw)
    failed = []
    for i, text in enumerate(texts):
        if (i, text) not in memo:
            memo[i, text] = workload.problem(i, text)
        if memo[i, text] is not None:
            failed.append(f"operation {i}: {memo[i, text]}")
    return {
        "wall": wall,
        "latencies": latencies,
        "vertices": vertices,
        "ops": len(texts),
        "failed": failed,
        "digest": sha("\n".join(texts)),
    }


def self_checks(name: str, workload, tracer: Tracer, counts: dict) -> list[str]:
    """Closed-form counts the traced pass must reproduce exactly."""
    if name == "verify":
        got = sum(counts.get(f"verify.run_suite.{suite}", 0) for suite in SUITES)
        want, what = len(SUITES), "verify.run_suite calls"
    elif name == "cli-mix":
        want, got, what = len(workload.requests), counts.get("cli.main", 0), "cli.main calls"
    else:
        want = sum(spec["n"] for spec in workload.graphs)
        got = tracer.count_under("graph_core.bfs_layers", "graph_core.min_eccentricity_vertex")
        what = "bfs_layers calls under min_eccentricity_vertex"
    return [] if got == want else [f"self-check: {what} = {got}, expected {want}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)

    workload = WORKLOADS[args.workload](
        args.seed, os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-inputs")
    )
    # A traced run needs only the untraced baseline for the overhead ratio.
    min_passes = 1 if args.trace else workload.MIN_PASSES
    memo: dict = {}
    passes = []
    elapsed = 0.0
    while len(passes) < min_passes or elapsed < args.seconds:
        if len(passes) >= 2 and elapsed >= PASS_BUDGET_S:
            break
        passes.append(timed_pass(workload, memo))
        elapsed += passes[-1]["wall"]
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_s": [p["wall"] for p in passes],
        "latencies_s": [p["latencies"] for p in passes],
        "vertices_per_pass": passes[0]["vertices"],
        "peak_rss_kib": peak_rss_kib,
        "trace": None,
    }
    problems: list[str] = []
    if args.trace:
        # Two traced passes: metrics and spans come from the first, and the
        # second must repeat its call counts exactly.
        tracer = Tracer()
        bindings = tracer.install()
        traced = timed_pass(workload, memo)
        untraced_wall = statistics.median(result["pass_s"])
        values = layer_metrics(tracer, traced["wall"] / untraced_wall)
        counts = call_counts(tracer)
        problems += self_checks(args.workload, workload, tracer, counts)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.bin")
        tracer.write(spans_path)
        spans = len(tracer)
        tracer.clear()
        passes += [traced, timed_pass(workload, memo)]
        if call_counts(tracer) != counts:
            problems.append("traced call counts differ between two traced passes")
        result["trace"] = {
            "metrics": values,
            "spans": spans,
            "bindings": bindings,
            "spans_file": spans_path,
            "counts_digest": sha(json.dumps(counts)),
            "traced_pass_s": traced["wall"],
            "traced_vertices": traced["vertices"],
            "traced_requests": len(traced["latencies"]),
        }

    # Every pass, traced or not, must give the same outputs.
    if len({p["digest"] for p in passes}) != 1:
        problems.append("outputs differ between passes of one run")
    result["digest"] = passes[0]["digest"]
    failed = [why for p in passes for why in p["failed"]]
    result.update(
        attempted=sum(p["ops"] for p in passes),
        failed=len(failed),
        problems=(failed + problems)[:20],
        correct=not failed and not problems,
    )
    if hasattr(workload, "close"):
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
