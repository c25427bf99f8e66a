"""End-to-end command tests driving cli.main with in-process argv lists."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import graphs
from hypothesis import example, given, strategies as st

import domcert
from domcert import cli, graph_core
from domcert.cli import (
    GAMMA_NODE_BUDGET,
    MAX_BOUND_BITS,
    MAX_BOUND_PARAM,
    MAX_LINE_BYTES,
    MAX_VERTICES,
    main,
)
from domcert.corpus import erdos_renyi
from domcert.graph_core import (
    from_edge_list,
    gen_complete,
    gen_empty,
    gen_k_star,
    gen_path,
    gen_s_star,
    to_graph6,
)
from domcert.verify import DEFAULT_SEED, SUITE_NAMES


# Each "$ argv" line of cli_golden.txt, then the exact stdout of that command.
GOLDEN = re.split(
    r"^\$ (.*)\n", Path(__file__).with_name("cli_golden.txt").read_text(), flags=re.M
)


def run_json(argv, capsys, expect_status=0):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == expect_status, captured.err or captured.out
    return json.loads(captured.out)


def run_error(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    return captured.err


def traced_error(argv, capsys) -> tuple[str, int]:
    """run_error's message and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return run_error(argv, capsys), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LINE_CAP = f"a line is longer than {MAX_LINE_BYTES} bytes"
# Far longer than the line of any graph within MAX_VERTICES, but within MAX_LINE_BYTES.
LONG = 1 << 16


class TestGamma:
    def test_path_seven(self, capsys):
        report = run_json(["gamma", "--graph6", to_graph6(gen_path(7))], capsys)
        assert report["command"] == "gamma"
        assert report["result"]["gamma"] == 3
        witness = report["result"]["witness"]
        assert len(witness) == 3

    def test_edgeless_graph(self, capsys):
        report = run_json(["gamma", "--graph6", "D?"], capsys)
        assert report["result"]["gamma"] == 5

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "graph.g6"
        path.write_text(to_graph6(gen_complete(4)) + "\n")
        report = run_json(["gamma", "--input", str(path)], capsys)
        assert report["result"]["gamma"] == 1
        assert report["input"]["source"] == str(path)

    def test_edgelist_input(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        report = run_json(
            ["gamma", "--input", str(path), "--format", "edgelist"], capsys
        )
        assert report["result"]["gamma"] == 1
        assert report["input"]["n"] == 3

    def test_canonical_echo_identifies_isomorphs(self, capsys):
        p4 = to_graph6(gen_path(4))
        scrambled = to_graph6(from_edge_list(4, [(2, 0), (0, 3), (3, 1)]))
        first = run_json(["gamma", "--graph6", p4], capsys)
        second = run_json(["gamma", "--graph6", scrambled], capsys)
        assert (
            first["input"]["canonical_graph6"] == second["input"]["canonical_graph6"]
        )


class TestInputErrors:
    def test_bad_graph6(self, capsys):
        run_error(["gamma", "--graph6", "A!"], capsys)

    def test_both_sources(self, tmp_path, capsys):
        path = tmp_path / "g"
        path.write_text("A_\n")
        err = run_error(["gamma", "--input", str(path), "--graph6", "A_"], capsys)
        assert "exactly one" in err

    def test_neither_source(self, capsys):
        run_error(["gamma"], capsys)

    def test_missing_file(self, tmp_path, capsys):
        err = run_error(["gamma", "--input", str(tmp_path / "absent")], capsys)
        assert "cannot read" in err

    def test_inline_with_edgelist_format(self, capsys):
        run_error(["gamma", "--graph6", "A_", "--format", "edgelist"], capsys)

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestFree:
    def test_triple_on_complete(self, capsys):
        report = run_json(
            ["free", "--graph6", to_graph6(gen_complete(5)),
             "--k", "3", "--l", "2", "--m", "5"],
            capsys,
        )
        result = report["result"]
        assert result["free"] is True
        assert result["violated_family"] is None and result["embedding"] is None

    def test_path_violation_reported(self, capsys):
        report = run_json(
            ["free", "--graph6", to_graph6(gen_path(6)), "--m", "5"], capsys
        )
        result = report["result"]
        assert result["free"] is False
        assert result["violated_family"] == "path" and result["violated_size"] == 5
        assert result["embedding"] == [0, 1, 2, 3, 4]

    def test_requires_a_pattern(self, capsys):
        err = run_error(["free", "--graph6", "D~{"], capsys)
        assert "at least one" in err


class TestDominate:
    def test_complete_graph(self, capsys):
        report = run_json(
            ["dominate", "--graph6", to_graph6(gen_complete(5)),
             "--k", "3", "--l", "2", "--m", "5"],
            capsys,
        )
        result = report["result"]
        assert result["size"] == 1 and result["is_dominating"] is True
        bound = report["bound_report"]
        assert bound["total_bound"] == 22 and bound["bound_held"] is True

    def test_root_override(self, capsys):
        report = run_json(
            ["dominate", "--graph6", to_graph6(gen_path(7)), "--root", "3"], capsys
        )
        assert report["bound_report"]["root"] == 3
        assert report["result"]["dominating_set"] == [1, 2, 3, 4, 5]
        assert report["bound_report"]["bound_held"] is None

    def test_partial_parameters_rejected(self, capsys):
        err = run_error(
            ["dominate", "--graph6", to_graph6(gen_path(5)), "--k", "3"], capsys
        )
        assert "all of k" in err

    def test_disconnected_rejected(self, capsys):
        run_error(["dominate", "--graph6", "D?"], capsys)


class TestWitness:
    def test_spider_violation(self, capsys):
        report = run_json(
            ["witness", "--graph6", to_graph6(gen_s_star(3)),
             "--root", "0", "--layer", "2", "--k", "3", "--l", "2"],
            capsys,
        )
        assert report["result"]["found"] is True
        (entry,) = report["witnesses"]
        assert entry["shape"] == "sstar" and entry["size"] == 2
        assert entry["embedding"] == [0, 1, 2, 4, 5]

    def test_no_violation(self, capsys):
        c4 = to_graph6(from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        report = run_json(
            ["witness", "--graph6", c4, "--layer", "2", "--k", "2", "--l", "3"],
            capsys,
        )
        assert report["result"]["found"] is False
        assert report["witnesses"] == []

    def test_layer_flag_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["witness", "--graph6", "D~{", "--k", "3", "--l", "2"])


class TestLeq:
    def test_holds(self, capsys):
        report = run_json(
            ["leq", "--first", "kstar:2,sstar:2", "--second", "path:5"], capsys
        )
        assert report["result"]["holds"] is True

    def test_fails(self, capsys):
        report = run_json(
            ["leq", "--first", "path:5", "--second", "kstar:2"], capsys
        )
        assert report["result"]["holds"] is False

    def test_claw_token(self, capsys):
        report = run_json(["leq", "--first", "claw", "--second", "sstar:3"], capsys)
        assert report["result"]["holds"] is True

    def test_unknown_family(self, capsys):
        err = run_error(["leq", "--first", "wheel:4", "--second", "path:3"], capsys)
        assert "unknown family" in err

    def test_bad_size(self, capsys):
        err = run_error(["leq", "--first", "kstar:x", "--second", "path:3"], capsys)
        assert "bad size in token 'kstar:x'" in err

    def test_no_families(self, capsys):
        err = run_error(["leq", "--first", " , ,", "--second", "path:3"], capsys)
        assert "no families given in ' , ,'" in err

    def test_empty_tokens_skipped(self, capsys):
        argv = ["leq", "--first", ",kstar:2,, sstar:2,", "--second", "path:5"]
        assert run_json(argv, capsys)["result"]["holds"] is True


class TestBounds:
    def test_single_layer(self, capsys):
        report = run_json(["bounds", "--k", "3", "--l", "3", "--i", "2"], capsys)
        result = report["result"]
        assert result["ramsey"] == {"s": 3, "t": 3, "bound": 6, "kind": "exact-known"}
        assert result["g"] == 5 and result["f"] == 30

    def test_theorem_table(self, capsys):
        report = run_json(["bounds", "--k", "3", "--l", "2", "--m", "5"], capsys)
        result = report["result"]
        assert result["theorem_bound"] == 22
        assert [row["i"] for row in result["rows"]] == [2, 3]
        assert [row["f"] for row in result["rows"]] == [6, 15]

    def test_base_layer_has_no_f(self, capsys):
        report = run_json(["bounds", "--k", "2", "--l", "2", "--i", "1"], capsys)
        assert report["result"]["g"] == 1 and report["result"]["f"] is None

    def test_mode_flags_exclusive(self, capsys):
        err = run_error(["bounds", "--k", "2", "--l", "2", "--i", "2", "--m", "5"], capsys)
        assert "exactly one" in err
        run_error(["bounds", "--k", "2", "--l", "2"], capsys)

    def test_non_positive_k_gets_the_handlers_error(self, capsys):
        # The budget check leaves k < 1 to ramsey_upper, which names both arguments.
        err = run_error(["bounds", "--k", "0", "--l", "2", "--i", "2"], capsys)
        assert "Ramsey arguments must be positive, got (0,2)" in err

    def test_missing_l_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--k", "2", "--i", "2"])
        assert exit_info.value.code == 2
        assert "the following arguments are required: --l" in capsys.readouterr().err

    def test_value_past_bit_limit(self, capsys):
        # theorem_bound(10, 10, 8) has more than 4300 decimal digits.
        err = run_error(["bounds", "--k", "10", "--l", "10", "--m", "8"], capsys)
        assert f"more than {MAX_BOUND_BITS} bits" in err

    def test_layer_past_limit(self, capsys):
        # g(3, 3, i) is recursive in i and doubles its bit length per layer.
        err = run_error(["bounds", "--k", "3", "--l", "3", "--i", "100000"], capsys)
        assert "--i 100000" in err

    @pytest.mark.parametrize("flag", ["--k", "--l", "--m"])
    def test_parameter_limit(self, flag, capsys):
        argv = {"--k": "2", "--l": "2", "--m": "5"}
        argv[flag] = str(MAX_BOUND_PARAM + 1)
        run_error(["bounds"] + [t for pair in argv.items() for t in pair], capsys)

    def test_constant_layers_up_to_limit(self, capsys):
        # R(2, 2) = 2 and g(2, 2, i) = 1, so every row is small.
        argv = ["bounds", "--k", "2", "--l", "2", "--m", str(MAX_BOUND_PARAM)]
        report = run_json(argv, capsys)
        assert report["result"]["theorem_bound"] == 1 + 2 * (MAX_BOUND_PARAM - 3)


class TestReportLayout:
    @pytest.mark.parametrize(
        "argv, keys, parameters",
        [
            (["gamma", "--graph6", "D~{"], ["result"], {}),
            (["free", "--graph6", "D~{", "--m", "4"], ["result"], {"k": None, "l": None, "m": 4}),
            (["dominate", "--graph6", "D~{"], ["result", "bound_report"],
             {"root": None, "k": None, "l": None, "m": None, "verify_freeness": False}),
            (["witness", "--graph6", to_graph6(gen_path(5)), "--layer", "2", "--k", "3",
              "--l", "2"], ["result", "witnesses"], {"root": 2, "layer": 2, "k": 3, "l": 2}),
            (["witness", "--graph6", to_graph6(gen_path(5)), "--root", "0", "--layer", "2",
              "--k", "3", "--l", "2"], ["result", "witnesses"],
             {"root": 0, "layer": 2, "k": 3, "l": 2}),
            (["leq", "--first", "claw", "--second", "sstar:3"], ["result"],
             {"first": "claw", "second": "sstar:3"}),
            (["bounds", "--k", "3", "--l", "2", "--m", "5"], ["result"],
             {"k": 3, "l": 2, "i": None, "m": 5}),
            (["gen", "--family", "path", "--size", "3"], ["result"],
             {"family": "path", "size": 3}),
            (["verify", "--suite", "bound-table"], ["result", "criteria"],
             {"suites": ["bound-table"], "seed": DEFAULT_SEED}),
            (["verify"], ["result", "criteria"],
             {"suites": list(SUITE_NAMES), "seed": DEFAULT_SEED}),
        ],
        ids=["gamma", "free", "dominate", "witness", "witness-root", "leq", "bounds", "gen",
             "verify", "verify-all"],
    )
    def test_top_level_key_order(self, argv, keys, parameters, capsys, monkeypatch):
        if argv == ["verify"]:
            # Every suite by default: the parameters, not the battery, are under test.
            monkeypatch.setattr(cli, "run_suites", lambda names, seed: [])
        report = run_json(argv, capsys)
        assert list(report) == ["command", "input", "parameters"] + keys
        assert report["command"] == argv[0]
        assert report["parameters"] == parameters
        assert list(report["parameters"]) == list(parameters)
        if argv[0] in ("leq", "bounds", "gen", "verify"):
            assert report["input"] is None
        else:
            assert "n" in report["input"]

    @pytest.mark.parametrize("name", sorted(n for n in vars(cli) if n.startswith("_cmd_")))
    def test_handlers_leave_the_envelope_to_main(self, name):
        # main alone loads the input graph and writes the "input" key, and the
        # "parameters" key for all but verify. A dict display with constant keys
        # stores them as one tuple constant.
        codes = [getattr(cli, name).__code__]
        for code in codes:
            consts = [c for t in code.co_consts for c in (t if isinstance(t, tuple) else (t,))]
            assert "_load_graph" not in code.co_names
            assert "input" not in consts
            assert "parameters" not in consts or name == "_cmd_verify"
            # main encodes every result: a handler returns the library's objects as they are.
            assert not {"sorted", "vars", "mapping"} & set(code.co_names)
            codes.extend(c for c in consts if hasattr(c, "co_consts"))

    def test_readme_dominate_report(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        after = readme.split("A `dominate` report looks like:", 1)[1]
        shown = after.split("```json\n", 1)[1].split("```", 1)[0]
        argv = ["dominate", "--graph6", "FhCGG", "--k", "3", "--l", "2", "--m", "5"]
        assert run_json(argv, capsys) == json.loads(shown)

    def test_bound_report_key_order(self, capsys):
        argv = ["dominate", "--graph6", to_graph6(gen_path(6)), "--k", "3", "--l", "2",
                "--m", "6"]
        assert list(run_json(argv, capsys)["bound_report"]) == [
            "root", "layer_sizes", "total_size", "k", "l", "m",
            "layer_bounds", "total_bound", "bound_held", "freeness_checked",
        ]

    @pytest.mark.parametrize("argv, stdout", list(zip(GOLDEN[1::2], GOLDEN[2::2])))
    def test_golden_report_bytes(self, argv, stdout, capsys):
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == stdout


class TestGen:
    def test_kstar(self, capsys):
        report = run_json(["gen", "--family", "kstar", "--size", "3"], capsys)
        assert report["result"]["n"] == 6
        assert report["result"]["graph6"] == to_graph6(gen_k_star(3))

    def test_claw_fixed_size(self, capsys):
        report = run_json(["gen", "--family", "claw"], capsys)
        assert report["result"]["n"] == 4
        run_error(["gen", "--family", "claw", "--size", "4"], capsys)

    def test_size_required_for_parametric(self, capsys):
        err = run_error(["gen", "--family", "path"], capsys)
        assert "needs --size" in err

    def test_unknown_family_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--family", "wheel", "--size", "4"])


class TestOutputAndVerify:
    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        status = main(
            ["--output", str(target), "gen", "--family", "path", "--size", "3"]
        )
        assert status == 0
        assert capsys.readouterr().out == ""
        data = json.loads(target.read_text())
        assert data["result"]["graph6"] == to_graph6(gen_path(3))

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        err = run_error(
            ["--output", str(target), "gen", "--family", "path", "--size", "3"], capsys
        )
        assert str(target) in err

    def test_verify_selected_suites_deterministic(self, capsys):
        argv = ["verify", "--suite", "bound-table", "--suite", "roundtrip"]
        status = main(argv)
        first = capsys.readouterr().out
        assert status == 0
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["result"] == {"passed": True, "failed": []}
        names = [c["name"] for c in report["criteria"]]
        assert names == ["bound-table", "roundtrip"]
        assert all(c["passed"] for c in report["criteria"])

    def test_verify_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])


class TestInputBudgets:
    def test_largest_graph6_order_refused(self, capsys):
        # The size header alone declares 258047 vertices.
        err = run_error(["gamma", "--graph6", "~}~~"], capsys)
        assert f"258047 vertices, above the limit of {MAX_VERTICES}" in err

    def test_edge_list_order_past_graph6_limit(self, tmp_path, capsys):
        # Refused from the header, before any vertex is built.
        path = tmp_path / "huge.txt"
        path.write_text("100000000000 0\n")
        err = run_error(["gamma", "--input", str(path), "--format", "edgelist"], capsys)
        assert "graph order 100000000000 exceeds the graph6 limit of 258047" in err

    def test_vertex_limit(self, tmp_path, capsys):
        report = run_json(["gamma", "--graph6", to_graph6(gen_empty(MAX_VERTICES))], capsys)
        assert report["result"]["gamma"] == MAX_VERTICES
        path = tmp_path / "big.txt"
        path.write_text(f"{MAX_VERTICES + 1} 1\n0 1\n")
        run_error(["gamma", "--input", str(path), "--format", "edgelist"], capsys)

    @pytest.mark.parametrize(
        "fmt, over, at, fault",
        [
            # 51 and 50 vertices, each with body bytes past its end.
            ("graph6", "~??r" + "?" * 214, "~??q" + "?" * 214, "trailing garbage"),
            ("edgelist", "51 2\n0 1\n", "50 2\n0 1\n", "expected 2 edge lines"),
            ("edgelist", "51 1\n0 x\n", "50 1\n0 x\n", "non-integer edge line"),
        ],
        ids=["graph6-trailing-bytes", "edgelist-short", "edgelist-bad-line"],
    )
    def test_limit_reported_before_malformed_body(self, fmt, over, at, fault, tmp_path, capsys):
        # The order is checked first; at the limit the same fault is reported.
        path = tmp_path / "input"
        path.write_text(over)
        err = run_error(["gamma", "--input", str(path), "--format", fmt], capsys)
        assert f"graph has 51 vertices, above the limit of {MAX_VERTICES}" in err
        path.write_text(at)
        err = run_error(["gamma", "--input", str(path), "--format", fmt], capsys)
        assert fault in err

    def test_gamma_node_budget(self, capsys):
        # About a minute of search without the budget.
        graph = erdos_renyi(50, 0.05, random.Random(3))
        err = run_error(["gamma", "--graph6", to_graph6(graph)], capsys)
        assert f"budget of {GAMMA_NODE_BUDGET} nodes" in err

    def test_gamma_node_budget_is_the_cli_constant(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "GAMMA_NODE_BUDGET", 5)
        err = run_error(["gamma", "--graph6", to_graph6(gen_path(7))], capsys)
        assert "budget of 5 nodes" in err

    @pytest.mark.parametrize(
        "argv, vertices",
        [
            (["gen", "--family", "complete", "--size", "5000"], 5000),
            (["gen", "--family", "sstar", "--size", str(MAX_VERTICES // 2)], MAX_VERTICES + 1),
            (["free", "--graph6", "A_", "--k", str(MAX_VERTICES // 2 + 1)], MAX_VERTICES + 2),
            (["free", "--graph6", "A_", "--m", str(MAX_VERTICES + 1)], MAX_VERTICES + 1),
            (["leq", "--first", "kstar:2", "--second", "path:1000000"], 1000000),
        ],
        ids=["gen-complete", "gen-sstar", "free-kstar", "free-path", "leq-path"],
    )
    def test_family_size_caps(self, argv, vertices, capsys):
        err = run_error(argv, capsys)
        assert f"has {vertices} vertices, above the limit of {MAX_VERTICES}" in err

    def test_family_at_the_cap(self, capsys):
        argv = ["gen", "--family", "kstar", "--size", str(MAX_VERTICES // 2)]
        assert run_json(argv, capsys)["result"]["n"] == MAX_VERTICES

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_errors_exit_two(self, error, monkeypatch, capsys):
        def exhausted(args, graph):
            raise error("exhausted")

        monkeypatch.setattr(cli, "_cmd_gamma", exhausted)
        err = run_error(["gamma", "--graph6", "A_"], capsys)
        assert error.__name__ in err

    @pytest.mark.parametrize(
        "argv",
        [
            # layer_bounds of P_30 from its centre pass Python's 4300-digit limit.
            ["dominate", "--graph6", to_graph6(gen_path(30)), "--k", "3", "--l", "3", "--m", "6"],
            ["dominate", "--graph6", "Bw", "--k", "128", "--l", "128", "--m", "8"],
            ["witness", "--graph6", "EhCG", "--root", "0", "--layer", "5",
             "--k", "128", "--l", "128"],
        ],
        ids=["dominate-deep-layers", "dominate-large-parameters", "witness-large-parameters"],
    )
    def test_bound_budget(self, argv, capsys):
        err = run_error(argv, capsys)
        assert f"has more than {MAX_BOUND_BITS} bits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dominate", "--graph6", "Bw", "--k", "2", "--l", "2", "--m", "129"],
            ["witness", "--graph6", "Bw", "--layer", "129", "--k", "2", "--l", "2"],
        ],
        ids=["dominate", "witness"],
    )
    def test_bound_parameter_limit(self, argv, capsys):
        err = run_error(argv, capsys)
        assert f"129 is above the limit of {MAX_BOUND_PARAM}" in err

    @given(graphs(max_n=7), *[st.integers(1, 200)] * 4)
    def test_bound_parameters_exit_cleanly(self, graph, k, ell, m, layer):
        text = to_graph6(graph)
        bound = ["--k", str(k), "--l", str(ell)]
        assert main(["dominate", "--graph6", text, "--m", str(m)] + bound) in (0, 2)
        assert main(["witness", "--graph6", text, "--layer", str(layer)] + bound) in (0, 2)

    @given(
        st.text(
            st.characters(min_codepoint=32, max_codepoint=126)
            | st.characters(min_codepoint=128),
            max_size=12,
        ),
        st.sampled_from([["gamma"], ["free", "--m", "4"]]),
    )
    @example(text="--", command=["gamma"])
    def test_short_graph6_strings(self, text, command):
        # The --graph6=... form passes strings that start with '-' to the parser as values.
        assert main(command + [f"--graph6={text}"]) in (0, 2)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gamma", "--graph6=--"], "graph6"),
            (["free", "--m", "4", "--graph6=--"], "graph6"),
            (["leq", "--first=--", "--second", "path:3"], "first"),
            (["dominate", "--root=--", "--graph6", "A_"], "root"),
            (["bounds", "--k=--", "--l", "2", "--i", "2"], "k"),
            (["gen", "--family", "path", "--size=--"], "size"),
            (["verify", "--suite=--"], "suite"),
        ],
        ids=["gamma", "free", "leq", "dominate", "bounds", "gen", "verify"],
    )
    def test_double_dash_value(self, argv, flag, capsys):
        # argparse parses `--opt=--` to an empty list, which no option accepts.
        assert f"--{flag} needs a value" in run_error(argv, capsys)

    @pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
    def test_undecodable_input_file(self, fmt, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"\xff\xfe\x00A_")
        err = run_error(["gamma", "--input", str(path), "--format", fmt], capsys)
        assert f"cannot read {path}" in err

    # The file is read up to the line holding the order; when that order is
    # refused, the 4 MB after it, ending in bytes that do not decode, are never read.
    @pytest.mark.parametrize("fmt, head", [("graph6", b"\n r\n"), ("edgelist", b"# order\n51 0\n")])
    def test_over_limit_order_before_undecodable_bytes(self, fmt, head, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_bytes(head + b"0 1\n" * (1 << 20) + b"\xff\xfe\n")
        err, peak = traced_error(["gamma", "--input", str(path), "--format", fmt], capsys)
        assert "graph has 51 vertices, above the limit of 50" in err
        assert peak < 1 << 20

    # A line past MAX_LINE_BYTES is refused from its first MAX_LINE_BYTES + 1
    # bytes, before it is decoded, whatever the rest of the line holds.
    def test_over_limit_order_on_one_long_line(self, tmp_path, capsys):
        path = tmp_path / "graph.g6"
        path.write_bytes(b"~}~~" + b"~" * (4 << 20))
        err, peak = traced_error(["gamma", "--input", str(path)], capsys)
        assert err == f"error: cannot read {path}: {LINE_CAP}\n"
        assert peak < 1 << 20

    def test_decode_error_deep_in_one_long_line(self, tmp_path, capsys):
        path = tmp_path / "graph.g6"
        path.write_bytes(b"A_\r" + b"~" * (4 << 20) + b"\xff")
        err, peak = traced_error(["gamma", "--input", str(path)], capsys)
        assert err == f"error: cannot read {path}: {LINE_CAP}\n"
        assert peak < 1 << 20

    def test_long_comment_before_edge_list_header(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"# " + b"x" * (4 << 20) + b"\n51 0\n")
        err, peak = traced_error(["gamma", "--input", str(path), "--format", "edgelist"], capsys)
        assert err == f"error: cannot read {path}: {LINE_CAP}\n"
        assert peak < 1 << 20

    # A line of MAX_LINE_BYTES bytes, its line end included, is read; one more is refused.
    @pytest.mark.parametrize(
        "fmt, head, tail",
        [("graph6", b"A_", b"\n"), ("graph6", b"A_ ", b""), ("edgelist", b"#", b"\n1 0\n")],
        ids=["graph6-padded", "graph6-last-line", "edgelist-comment"],
    )
    def test_line_cap(self, fmt, head, tail, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        argv = ["gamma", "--input", str(path), "--format", fmt]
        pad = MAX_LINE_BYTES - len(head) - len(tail.partition(b"\n")[1])
        path.write_bytes(head + b" " * pad + tail)
        assert run_json(argv, capsys)["result"]["gamma"] == 1
        path.write_bytes(head + b" " * (pad + 1) + tail)
        assert LINE_CAP in run_error(argv, capsys)

    # Each outcome is the one the whole line gives: the first character outside
    # graph6 range, the stripped end and the length count, and so does every
    # byte of the line's decoding.
    @pytest.mark.parametrize(
        "line, message",
        [
            (b"A" + b"?" * LONG, f"trailing garbage: {LONG} body bytes where at most 1 expected"),
            (b"A" + b"?" * LONG + b" \t" * LONG, f"trailing garbage: {LONG} body bytes"),
            (b"~??r" + b"?" * LONG, "graph has 51 vertices, above the limit of 50"),
            (b"~}~~" + b"~" * LONG + b"!", "character '!' outside graph6 range"),
            (b"~}~~" + b"~" * LONG + b" " * LONG + b"A", "character ' ' outside graph6 range"),
            (b"A_\r" + b"~" * LONG + b"\xff", "can't decode byte 0xff in position 65539"),
            (b"A_" + b" " * LONG + b"\xe2\x80\nA_", "position 65538-65539: invalid continuation"),
        ],
        ids=["garbage", "garbage-then-space", "limit", "character", "inner-space", "decode",
             "decode-split"],
    )
    def test_long_graph6_line(self, line, message, tmp_path, capsys):
        path = tmp_path / "graph.g6"
        path.write_bytes(b"\n \n" + line + b"\n")
        assert message in run_error(["gamma", "--input", str(path)], capsys)

    @pytest.mark.parametrize(
        "data",
        [b" " * LONG + b"A_" + b"\t" * LONG, b" " * (LONG - 1) + "\xa0A_\u2028\xff".encode()],
        ids=["whitespace", "split-character"],
    )
    def test_long_whitespace_around_graph6_line(self, data, tmp_path, capsys):
        path = tmp_path / "graph.g6"
        path.write_bytes(data)
        assert run_json(["gamma", "--input", str(path)], capsys)["result"]["gamma"] == 1

    def test_graph6_line_before_undecodable_bytes(self, tmp_path, capsys):
        path = tmp_path / "graph.g6"
        path.write_bytes(to_graph6(gen_complete(4)).encode() + b"\n\xff\xfe\n")
        assert run_json(["gamma", "--input", str(path)], capsys)["result"]["gamma"] == 1

    def test_undecodable_edge_line(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"3 2\n0 1\n1 \xff\n")
        err = run_error(["gamma", "--input", str(path), "--format", "edgelist"], capsys)
        assert f"cannot read {path}" in err


# What cli imported from the decoders to read a graph's order before its body,
# and what cli kept of that reading itself; graph_core._staged alone does it now.
DECODER_INTERNALS = (
    "_LINE", "_OUTSIDE_GRAPH6", "_Neighbourhoods", "_decode_size", "_parse_graph6",
    "_edge_list_header", "_edge_list_body", "parse_graph6", "_graph6_line", "_KEPT",
)


def test_cli_binds_no_decoder_internal():
    assert [name for name in DECODER_INTERNALS if hasattr(cli, name)] == []
    # The staged reader has no public name, so the tracer of public functions
    # adds no span for it.
    for module in (cli, graph_core):
        names = [name for name, value in vars(module).items() if value is graph_core._staged]
        assert names == ["_staged"], module.__name__


def run_python(args):
    """Run a new interpreter with args, importing this package."""
    src = os.path.dirname(os.path.dirname(domcert.__file__))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestParserReuse:
    def test_root_does_not_carry_over(self, capsys):
        argv = ["dominate", "--graph6", to_graph6(gen_path(6))]
        cli._parser.cache_clear()
        fresh = run_json(argv, capsys)
        assert run_json(argv + ["--root", "3"], capsys)["bound_report"]["root"] == 3
        assert run_json(argv, capsys) == fresh
        assert fresh["parameters"]["root"] is None
        assert fresh["bound_report"]["root"] == 2

    def test_output_does_not_carry_over(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        argv = ["gen", "--family", "path", "--size", "3"]
        assert main(["--output", str(target)] + argv) == 0
        assert capsys.readouterr().out == ""
        assert run_json(argv, capsys) == json.loads(target.read_text())

    def test_one_build_per_process(self, monkeypatch, capsys):
        builds = []
        real = cli.build_parser

        def counted():
            builds.append(1)
            return real()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        for size in range(1, 21):
            assert main(["gen", "--family", "path", "--size", str(size)]) == 0
        capsys.readouterr()
        assert len(builds) == 1

    def test_import_builds_no_parser(self):
        code = "import domcert.cli as cli; print(cli._parser.cache_info().currsize)"
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_module_entry_point(self, capsys):
        argv = ["gamma", "--graph6", "D~{"]
        proc = run_python(["-m", "domcert.cli", *argv])
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
