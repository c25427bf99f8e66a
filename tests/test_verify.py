"""The verify battery: one parse of the packaged corpus, shared by its suites."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from conftest import count_corpus_parses
from domcert import verify
from domcert.cli import main
from domcert.corpus import EXPECTED_CONNECTED_COUNTS
from domcert.errors import DomcertError
from domcert.verify import SUITE_NAMES, CriterionResult, run_suite, run_suites

CORPUS_SIZE = sum(EXPECTED_CONNECTED_COUNTS.values())


@pytest.fixture
def loads(monkeypatch):
    """Count the corpus parses made through either module's binding."""
    return count_corpus_parses(monkeypatch)


def test_full_battery_parses_corpus_once(battery):
    results, loads = battery
    assert [r.name for r in results] == list(SUITE_NAMES)
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    assert loads == 1


def test_battery_without_corpus_suites_parses_nothing(loads):
    results = run_suites(["paths", "bound-table"])
    assert all(r.passed for r in results)
    assert loads == []


def test_shared_corpus_is_not_grown_by_a_suite(loads):
    # The oracle hosts extend the list they are given; the suites after them
    # must still see the corpus as parsed.
    first, second, roundtrip = run_suites(["oracles", "oracles", "roundtrip"])
    assert first.passed and roundtrip.passed
    assert second == first
    assert roundtrip.detail.startswith(f"{CORPUS_SIZE} corpus graphs round-trip")
    assert len(loads) == 1


def test_unknown_suite_name():
    with pytest.raises(DomcertError, match="unknown suite 'nope'; choose from paths, "):
        run_suite("nope")


def test_suite_alone_parses_corpus_itself(loads):
    result = run_suite("roundtrip")
    assert result.passed
    assert len(loads) == 1


@pytest.fixture
def wrong_paths(monkeypatch):
    """gamma_exact answers 0 for every graph, so `paths` fails on P_1."""
    monkeypatch.setattr(verify, "gamma_exact", lambda graph: SimpleNamespace(gamma=0))


def test_failing_suite_result(wrong_paths):
    detail = "path on 1 vertices gave 0, expected 1"
    assert run_suite("paths") == CriterionResult("paths", False, detail)


def test_failing_suite_exits_one(wrong_paths, capsys):
    assert main(["verify", "--suite", "paths"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {"passed": False, "failed": ["paths"]}
    (criterion,) = report["criteria"]
    assert criterion == {
        "name": "paths", "passed": False, "detail": "path on 1 vertices gave 0, expected 1"
    }


def test_nested_check_failure(monkeypatch):
    monkeypatch.setattr(verify, "is_dominating", lambda graph, vertices: False)
    result = run_suite("soundness")
    assert (result.name, result.passed) == ("soundness", False)
    assert result.detail.startswith("output fails to dominate ")
