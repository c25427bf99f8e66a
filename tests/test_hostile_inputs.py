"""Hostile CLI requests that are refused cleanly today: exit 2 and one error line,
within a wall-time and a peak-RSS ceiling. A sibling table holds the requests that
must answer within the same ceilings: exit 0 and a report.

Each request runs in a child interpreter that caps its own address space before
it calls cli.main, so a regression fails its entry instead of exhausting the
machine; nothing outside the child is limited. An entry lands with the change
that makes the CLI refuse or answer it, never ahead of it as an expected failure.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import pytest

import domcert
from conftest import SYMMETRIC_HARD
from domcert.corpus import erdos_renyi
from domcert.graph_core import gen_path, to_graph6

ADDRESS_SPACE = 1 << 30
# Each request took at most about 1 s (the gamma node budget) and 17 MB on a
# 2-vCPU VM, interpreter start included; a bare interpreter with domcert
# imported peaks near 17 MB. The large files stay at that floor: no line past
# the one holding the order is read from the file, and a line longer than
# cli.MAX_LINE_BYTES is refused from its first MAX_LINE_BYTES + 1 bytes.
WALL_CEILING_S = 5.0
RSS_CEILING_MB = 64

# Runs the request under the address-space cap, then copies the child's peak RSS
# line to the file named by the first argument. VmHWM starts afresh at exec;
# ru_maxrss would report the forking test process's RSS when that is larger.
CHILD = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, resource.getrlimit(resource.RLIMIT_AS)[1]))
from domcert import cli
status = cli.main(sys.argv[2:])
with open("/proc/self/status") as proc, open(sys.argv[1], "w") as out:
    out.writelines(line for line in proc if line.startswith("VmHWM:"))
sys.exit(status)
"""

# (argv, bytes of the input file or None); "{input}" in argv names that file.
HOSTILE = {
    "graph6-order-258047": (["gamma", "--graph6", "~}~~"], None),
    "edgelist-order-258048": (
        ["gamma", "--input", "{input}", "--format", "edgelist"],
        b"258048 0\n",
    ),
    # Over the vertex limit by the size field or header, with a large body after it;
    # a graph6 body on the size field's line is refused by the line cap first.
    "graph6-order-258047-1mb-body": (["gamma", "--input", "{input}"], b"~}~~" + b"~" * (1 << 20)),
    "graph6-order-258047-4mb-body": (["gamma", "--input", "{input}"], b"~}~~" + b"~" * (4 << 20)),
    "edgelist-star-258047-centre-last": (
        ["gamma", "--input", "{input}", "--format", "edgelist"],
        b"258047 258046\n" + b"".join(b"%d 258046\n" % v for v in range(258046)),
    ),
    # Refused by the first line, read from the file without the rest.
    "graph6-order-258047-then-4m-lines": (
        ["gamma", "--input", "{input}"],
        b"~}~~\n" + b"A_\n" * (4 << 20),
    ),
    "edgelist-header-60-2000000": (
        ["gamma", "--input", "{input}", "--format", "edgelist"],
        b"60 2000000\n" + b"0 59\n" * 2000000,
    ),
    # Within the vertex limit, but declaring more edges than 50 vertices allow.
    "edgelist-header-50-2000000": (
        ["gamma", "--input", "{input}", "--format", "edgelist"],
        b"50 2000000\n" + b"0 1\n" * 2000000,
    ),
    # A negative order, refused at the header: n(n - 1)/2 is positive, so the
    # edge count passes.
    "edgelist-header-negative-order": (
        ["gamma", "--input", "{input}", "--format", "edgelist"],
        b"-100000 2000000\n" + b"0 1\n" * 2000000,
    ),
    "undecodable-input": (["gamma", "--input", "{input}"], b"\xff\xfe\x00A_"),
    "double-dash-value": (["gamma", "--graph6=--"], None),
    "bounds-parameter-129": (["bounds", "--k", "129", "--l", "2", "--i", "2"], None),
    "bounds-too-many-bits": (["bounds", "--k", "10", "--l", "10", "--m", "8"], None),
    "gen-complete-5000": (["gen", "--family", "complete", "--size", "5000"], None),
    "dominate-deep-layers": (
        ["dominate", "--graph6", to_graph6(gen_path(30)), "--k", "3", "--l", "3", "--m", "6"],
        None,
    ),
    "gamma-node-budget": (
        ["gamma", "--graph6", to_graph6(erdos_renyi(50, 0.08, random.Random(0)))],
        None,
    ),
}


# Within the vertex limit and answered: symmetric inputs whose canonical
# labelling once hung, and a containment search that once placed K*_12's
# clique in K_50 about C(50, 12) ways before finding that no pendant fits.
ANSWERED = {
    **{
        f"gamma-{name}": (["gamma", "--graph6", to_graph6(graph)], None)
        for name, graph in SYMMETRIC_HARD.items()
    },
    "leq-kstar-12-in-complete-50": (
        ["leq", "--first", "kstar:12,sstar:12", "--second", "complete:50"],
        None,
    ),
}


def run_request(argv, content, tmp_path):
    """The child's completed run of argv, its wall time in seconds and its peak RSS
    in MB; "{input}" in argv names a file holding content."""
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    argv = [str(path) if arg == "{input}" else arg for arg in argv]
    rss_file = tmp_path / "maxrss"
    src = os.path.dirname(os.path.dirname(domcert.__file__))
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(rss_file), *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        # A hang fails soon after it passes the wall ceiling.
        timeout=2 * WALL_CEILING_S,
    )
    elapsed = time.perf_counter() - start
    # A child that failed before it wrote its peak fails its status check first.
    peak_mb = int(rss_file.read_text().split()[1]) / 1024 if rss_file.exists() else None
    return run, elapsed, peak_mb


@pytest.mark.parametrize("argv, content", HOSTILE.values(), ids=HOSTILE.keys())
def test_refused_within_ceilings(argv, content, tmp_path):
    run, elapsed, peak_mb = run_request(argv, content, tmp_path)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert "Traceback" not in run.stderr
    assert elapsed < WALL_CEILING_S
    assert peak_mb < RSS_CEILING_MB


@pytest.mark.parametrize("argv, content", ANSWERED.values(), ids=ANSWERED.keys())
def test_answered_within_ceilings(argv, content, tmp_path):
    run, elapsed, peak_mb = run_request(argv, content, tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert json.loads(run.stdout)["command"] == argv[0]
    assert elapsed < WALL_CEILING_S
    assert peak_mb < RSS_CEILING_MB
