"""The verify battery: one parse of the packaged corpus, shared by its suites."""

from __future__ import annotations

import pytest

from domcert import corpus, verify
from domcert.corpus import EXPECTED_CONNECTED_COUNTS
from domcert.verify import SUITE_NAMES, run_suite, run_suites

CORPUS_SIZE = sum(EXPECTED_CONNECTED_COUNTS.values())


@pytest.fixture
def loads(monkeypatch):
    """Count the corpus parses made through either module's binding."""
    calls = []
    original = corpus.load_fixture_corpus

    def counted():
        calls.append(1)
        return original()

    monkeypatch.setattr(corpus, "load_fixture_corpus", counted)
    monkeypatch.setattr(verify, "load_fixture_corpus", counted)
    return calls


def test_full_battery_parses_corpus_once(loads):
    results = run_suites()
    assert [r.name for r in results] == list(SUITE_NAMES)
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    assert len(loads) == 1


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


def test_suite_alone_parses_corpus_itself(loads):
    result = run_suite("roundtrip")
    assert result.passed
    assert len(loads) == 1
