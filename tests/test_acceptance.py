"""Acceptance gate: one test per shipped criterion, one printed line each.

Every test reads its criterion from one full battery per session, run by the
same `run_suites` the `domcert verify` command calls, so the gate here and the
CLI report can never drift apart. Each test prints a single PASS/FAIL line
with the criterion's summary before asserting.
"""

from __future__ import annotations

from domcert.verify import SUITE_NAMES

_ORDERED = (
    "paths",
    "families",
    "ore",
    "ckshep",
    "soundness",
    "independence",
    "ramsey",
    "witness",
    "bound-table",
    "oracles",
    "roundtrip",
)


def test_acceptance_catalogue_complete():
    assert tuple(SUITE_NAMES) == _ORDERED


def _run(number: int, name: str, capsys, battery) -> None:
    results, _ = battery
    (result,) = [r for r in results if r.name == name]
    verdict = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {name}: {verdict} - {result.detail}")
    assert result.passed, result.detail


def test_acceptance_01_paths(capsys, battery):
    _run(1, "paths", capsys, battery)


def test_acceptance_02_families(capsys, battery):
    _run(2, "families", capsys, battery)


def test_acceptance_03_ore(capsys, battery):
    _run(3, "ore", capsys, battery)


def test_acceptance_04_ckshep(capsys, battery):
    _run(4, "ckshep", capsys, battery)


def test_acceptance_05_soundness(capsys, battery):
    _run(5, "soundness", capsys, battery)


def test_acceptance_06_independence(capsys, battery):
    _run(6, "independence", capsys, battery)


def test_acceptance_07_ramsey(capsys, battery):
    _run(7, "ramsey", capsys, battery)


def test_acceptance_08_witness(capsys, battery):
    _run(8, "witness", capsys, battery)


def test_acceptance_09_bound_table(capsys, battery):
    _run(9, "bound-table", capsys, battery)


def test_acceptance_10_oracles(capsys, battery):
    _run(10, "oracles", capsys, battery)


def test_acceptance_11_roundtrip(capsys, battery):
    _run(11, "roundtrip", capsys, battery)
