"""Graph representation, formats, BFS layers, and family generators."""

from __future__ import annotations

import random
from collections import deque
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import connected_graphs, graphs
from domcert.domination import is_dominating
from domcert.errors import (
    DisconnectedGraphError,
    EdgeListFormatError,
    Graph6FormatError,
    GraphConstructionError,
)
from domcert.graph_core import (
    GRAPH6_HEADER,
    Graph,
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
from domcert.subgraph import contains_induced


def literal_center(graph: Graph) -> int:
    """Reference root: minimum eccentricity within the vertex's component, lowest
    id on ties, from one deque BFS over `adj` per vertex."""
    best = None
    for root in range(graph.n):
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in graph.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if best is None or max(dist.values()) < best[0]:
            best = (max(dist.values()), root)
    return best[1]


def reference_parse_graph6(text: str) -> Graph:
    """Reference decoder: visits every set bit and finds its column with isqrt,
    collecting one set per vertex."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6FormatError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise Graph6FormatError(f"character {ch!r} outside graph6 range [63,126]")
    data = s.encode("ascii")
    if data[0] != 126:
        n, body = data[0] - 63, data[1:]
    elif len(data) < 4 or data[1] == 126:
        raise Graph6FormatError("unsupported or truncated graph6 size field")
    else:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) > nbytes:
        raise Graph6FormatError(
            f"trailing garbage: {len(body)} body bytes where at most {nbytes} expected"
        )
    adj: dict[int, set[int]] = {}
    for i, b in enumerate(body):
        val = b - 63
        while val:
            top = val.bit_length() - 1
            val ^= 1 << top
            k = 6 * i + 5 - top
            if k >= nbits:
                raise Graph6FormatError("nonzero padding bits")
            v = (1 + isqrt(1 + 8 * k)) // 2
            u = k - v * (v - 1) // 2
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return Graph(n, tuple(frozenset(adj.get(v, ())) for v in range(n)))


def decode_outcome(decode, text: str):
    """The decoded graph, or the type and message of what decoding raised."""
    try:
        return decode(text)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def graph6_texts(draw) -> str:
    """The graph6 string of a graph with n <= 70, optionally cut short, extended,
    with one character overwritten (possibly outside graph6's range), or headed."""
    n = draw(st.integers(0, 70))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=120)) if pairs else set()
    text = to_graph6(from_edge_list(n, sorted(edges)))
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    text += draw(st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=2))
    if text and draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.characters(max_codepoint=400)) + text[i + 1:]
    if draw(st.booleans()):
        text = GRAPH6_HEADER + text
    return text


def sparse_connected(n: int, rng: random.Random) -> Graph:
    """A random spanning tree plus n // 2 random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return from_edge_list(n, sorted(edges))


class TestGraphType:
    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(GraphConstructionError, match="asymmetric"):
            Graph(2, (frozenset({1}), frozenset()))

    def test_rejects_loop(self):
        with pytest.raises(GraphConstructionError, match="loop"):
            Graph(1, (frozenset({0}),))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(GraphConstructionError, match="out of range"):
            Graph(1, (frozenset({3}),))

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphConstructionError, match="does not match"):
            Graph(2, (frozenset(),))

    def test_rejects_negative_order(self):
        with pytest.raises(GraphConstructionError, match="negative vertex count -1"):
            Graph(-1, ())

    def test_relabel_rejects_repeated_vertex(self):
        with pytest.raises(GraphConstructionError, match="not a permutation"):
            gen_path(3).relabel([0, 0, 1])

    def test_induced_relabels_sorted(self):
        p4 = gen_path(4)
        sub = p4.induced([1, 3, 2])
        assert sub.n == 3
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_masks_mirror_adjacency(self):
        g = gen_k_star(3)
        assert g.masks == tuple(sum(1 << u for u in g.adj[v]) for v in range(g.n))
        assert g.masks[0] == 0b1110  # clique partners 1, 2 and pendant 3

    def test_masks_do_not_affect_equality(self):
        g, h = gen_path(4), gen_path(4)
        g.masks
        assert g == h and hash(g) == hash(h)

    def test_relabel_roundtrip(self):
        g = gen_k_star(2)
        order = [3, 1, 0, 2]
        back = g.relabel(order).relabel([order.index(v) for v in range(4)])
        assert back.adj == g.adj


class TestFromEdgeList:
    def test_single_edge(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.edges() == [(0, 1)]

    def test_rejects_negative_order(self):
        with pytest.raises(GraphConstructionError, match="negative vertex count -1"):
            from_edge_list(-1, [])

    def test_path_three(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.degree_sequence() == (2, 1, 1)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphConstructionError, match="duplicate"):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(GraphConstructionError, match="loop"):
            from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphConstructionError, match="outside"):
            from_edge_list(2, [(0, 2)])


class TestGraph6:
    def test_truncated_empty_five(self):
        g = parse_graph6("D?")
        assert g.n == 5 and g.edge_count() == 0

    def test_single_edge_pair(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<A_").edges() == [(0, 1)]

    def test_canonical_length_serialization(self):
        assert to_graph6(gen_empty(5)) == "D??"

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6FormatError, match="range"):
            parse_graph6("A!")

    def test_non_ascii_out_of_range(self):
        # Read as "?" (byte 63), the character would pass as an all-zero group.
        with pytest.raises(Graph6FormatError, match="range"):
            parse_graph6("B\u00e9")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6FormatError, match="trailing"):
            parse_graph6("A__")

    def test_nonzero_padding(self):
        # K_2 body uses only the top bit; any lower bit set is padding noise.
        with pytest.raises(Graph6FormatError, match="padding"):
            parse_graph6("A" + chr(63 + 1))

    def test_trailing_garbage_reported_before_padding(self):
        with pytest.raises(Graph6FormatError, match="trailing"):
            parse_graph6("A" + chr(63 + 1) + "_")

    def test_empty_string(self):
        with pytest.raises(Graph6FormatError, match="empty"):
            parse_graph6("   ")

    def test_largest_order_with_empty_body(self):
        # Four bytes declare n = 258047; the absent body reads as all zero bits.
        g = parse_graph6("~}~~")
        assert g.n == 258047 and g.edge_count() == 0

    def test_encoder_refuses_order_past_graph6_range(self):
        # Refused from the order alone: the body would take n(n-1)/2 bits.
        with pytest.raises(Graph6FormatError, match="258048 exceeds supported graph6 range"):
            to_graph6(gen_empty(258048))

    def test_large_order_size_field(self):
        g = gen_path(100)
        s = to_graph6(g)
        assert s.startswith("~")
        back = parse_graph6(s)
        assert back.n == 100 and back.adj == g.adj

    @given(graphs(max_n=9))
    def test_roundtrip(self, g):
        back = parse_graph6(to_graph6(g))
        assert back.n == g.n and back.adj == g.adj

    @settings(max_examples=200)
    @given(graph6_texts())
    def test_matches_reference_decoder(self, text):
        expected = decode_outcome(reference_parse_graph6, text)
        assert decode_outcome(parse_graph6, text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "", "   ", ">>graph6<<", ">>graph6<<A_", "A!", "B\u00e9", "C\u00ff?", "B~\x7f",
            "A__", "A@", "A@_", "Bw", "Bx", "D?", "D??@", "Ch", "~", "~?", "~??", "~~??",
            "~??@", "~?@@" + "?" * 347, "~?@@" + "?" * 348, "~?@@" + "?" * 346 + "@",
            "~?@@" + "?" * 346 + "B", "~?@@" + "?" * 346 + "C", "~?@@_" + "?" * 347,
        ],
    )
    def test_malformed_inputs_match_reference_decoder(self, text):
        expected = decode_outcome(reference_parse_graph6, text)
        assert decode_outcome(parse_graph6, text) == expected

    def test_large_sparse_graph_matches_reference_decoder(self):
        g = sparse_connected(2000, random.Random(7))
        text = to_graph6(g)
        assert parse_graph6(text) == reference_parse_graph6(text) == g


class TestEdgeListFormat:
    def test_roundtrip_with_comments(self):
        text = "# a path\n3 2\n0 1  # first\n1 2\n"
        g = parse_edge_list(text)
        assert g.edges() == [(0, 1), (1, 2)]
        assert to_edge_list(g) == "3 2\n0 1\n1 2\n"

    def test_wrong_edge_count(self):
        with pytest.raises(EdgeListFormatError, match="expected 2 edge"):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(EdgeListFormatError, match="header"):
            parse_edge_list("3\n")

    def test_non_integer(self):
        with pytest.raises(EdgeListFormatError, match="non-integer"):
            parse_edge_list("2 1\n0 x\n")

    def test_construction_error_wrapped(self):
        with pytest.raises(EdgeListFormatError, match="duplicate"):
            parse_edge_list("3 2\n0 1\n1 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty edge-list input"),
            ("# a comment only\n", "empty edge-list input"),
            ("x 0\n", "non-integer header 'x 0'"),
            ("2 1\n0 1 1\n", "edge line must be 'u v', got '0 1 1'"),
        ],
    )
    def test_malformed(self, text, message):
        with pytest.raises(EdgeListFormatError, match=message):
            parse_edge_list(text)

    def test_order_past_graph6_limit_refused(self):
        with pytest.raises(EdgeListFormatError, match="258048 exceeds the graph6 limit of 258047"):
            parse_edge_list("258048 0\n")

    def test_largest_graph6_order_parsed(self):
        g = parse_edge_list("258047 0\n")
        assert g.n == 258047 and g.edge_count() == 0

    @given(graphs(max_n=7))
    def test_roundtrip(self, g):
        back = parse_edge_list(to_edge_list(g))
        assert back.adj == g.adj


class TestNeighborhoods:
    def test_path_center(self):
        assert closed_neighborhood(gen_path(3), {1}) == {0, 1, 2}

    def test_empty_set(self):
        assert closed_neighborhood(gen_path(3), set()) == frozenset()

    def test_pendant_clique_all_covered(self):
        g = gen_k_star(3)
        assert closed_neighborhood(g, {0, 1, 2}) == frozenset(range(6))

    def test_dominates_center(self):
        p3 = gen_path(3)
        assert is_dominating(p3, {1})
        assert 2 not in closed_neighborhood(p3, {0})

    def test_pendants_dominate(self):
        g = gen_k_star(3)
        assert is_dominating(g, {3, 4, 5})

    def test_invalid_id_rejected(self):
        with pytest.raises(GraphConstructionError, match="outside"):
            closed_neighborhood(gen_path(3), {7})


class TestBfsLayers:
    def test_path_from_end(self):
        lay = bfs_layers(gen_path(5), 0)
        assert [sorted(c) for c in lay.layers] == [[0], [1], [2], [3], [4]]
        assert lay.depth == 4

    def test_complete(self):
        lay = bfs_layers(gen_complete(4), 0)
        assert [sorted(c) for c in lay.layers] == [[0], [1, 2, 3]]

    def test_spider_from_center(self):
        lay = bfs_layers(gen_s_star(3), 0)
        assert [sorted(c) for c in lay.layers] == [[0], [1, 2, 3], [4, 5, 6]]

    def test_layer_beyond_depth_is_empty(self):
        lay = bfs_layers(gen_path(2), 0)
        assert lay.layer(5) == frozenset()

    @given(graphs(min_n=1, max_n=8))
    def test_partition_and_edge_span(self, g):
        lay = bfs_layers(g, 0)
        seen = [v for cell in lay.layers for v in cell]
        assert len(seen) == len(set(seen))
        index = {v: i for i, cell in enumerate(lay.layers) for v in cell}
        for u, v in g.edges():
            if u in index and v in index:
                assert abs(index[u] - index[v]) <= 1

    def test_eccentricity(self):
        assert eccentricity(gen_path(5), 0) == 4
        assert eccentricity(gen_path(5), 2) == 2
        assert min_eccentricity_vertex(gen_path(5)) == 2

    def test_min_eccentricity_tie_breaks_low(self):
        assert min_eccentricity_vertex(gen_complete(4)) == 0

    @given(graphs(min_n=1, max_n=12) | connected_graphs(max_n=12))
    def test_min_eccentricity_matches_literal_bfs(self, g):
        assert min_eccentricity_vertex(g) == literal_center(g)

    def test_min_eccentricity_matches_literal_bfs_on_sparse_graph(self):
        g = sparse_connected(300, random.Random(3))
        assert is_connected(g)
        assert min_eccentricity_vertex(g) == literal_center(g)


class TestConnectivity:
    def test_pair(self):
        assert is_connected(from_edge_list(2, [(0, 1)]))

    def test_two_isolated(self):
        assert not is_connected(gen_empty(2))

    def test_pendant_clique(self):
        assert is_connected(gen_k_star(4))

    def test_empty_graph(self):
        assert not is_connected(gen_empty(0))


class TestGenerators:
    def test_pendant_clique_degrees(self):
        assert gen_k_star(3).degree_sequence() == (3, 3, 3, 1, 1, 1)

    def test_spider_degrees(self):
        assert gen_s_star(3).degree_sequence() == (3, 2, 2, 2, 1, 1, 1)

    def test_claw_shape_degrees(self):
        assert from_edge_list(4, [(0, 1), (0, 2), (0, 3)]).degree_sequence() == (3, 1, 1, 1)

    def test_spider_one_is_path_three(self):
        s1, p3 = gen_s_star(1), gen_path(3)
        assert contains_induced(s1, p3) is not None
        assert contains_induced(p3, s1) is not None

    def test_pendant_clique_two_is_path_four(self):
        k2, p4 = gen_k_star(2), gen_path(4)
        assert contains_induced(k2, p4) is not None
        assert contains_induced(p4, k2) is not None

    def test_spider_two_is_path_five(self):
        s2, p5 = gen_s_star(2), gen_path(5)
        assert contains_induced(s2, p5) is not None
        assert contains_induced(p5, s2) is not None

    def test_pendant_clique_one_is_single_edge(self):
        g = gen_k_star(1)
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_zero_size_rejected(self):
        for gen in (gen_path, gen_complete, gen_k_star, gen_s_star):
            with pytest.raises(GraphConstructionError):
                gen(0)

    def test_empty_graph_generator(self):
        assert gen_empty(0).n == 0
        assert gen_empty(3).edge_count() == 0

    def test_counts(self):
        assert gen_k_star(4).n == 8
        assert gen_s_star(4).n == 9
        assert gen_k_star(4).edge_count() == 6 + 4
        assert gen_s_star(4).edge_count() == 8

    def test_empty_graph_has_no_center(self):
        with pytest.raises(DisconnectedGraphError):
            min_eccentricity_vertex(gen_empty(0))
