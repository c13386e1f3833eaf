"""Pins the benchmark's own Eq. 2-4 checker against the library validator.

Run from the repository root: ``python -m pytest perfbench/test_checks.py``.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

from checks import eq_report, geomean, is_valid  # noqa: E402
from repro.graphs.builders import GraphBuilder  # noqa: E402
from repro.graphs.ops import OpType  # noqa: E402
from repro.graphs.zoo import build_dataset  # noqa: E402
from repro.solver.constraints import validate_partition  # noqa: E402
from repro.solver.strategies import sample_partition  # noqa: E402


def _library(graph, assignment, n_chips):
    report = validate_partition(graph, assignment, n_chips)
    return (report.acyclic_dataflow, report.no_skipping, report.triangle_dependency)


@pytest.fixture(scope="module")
def diamond():
    """0->1, 0->2, 1->3, 2->4, 3->4 (the paper's Figure 2a graph)."""
    b = GraphBuilder("diamond")
    n0 = b.add_node("0", OpType.INPUT, compute_us=1.0, output_bytes=8.0)
    n1 = b.add_node("1", OpType.RELU, compute_us=1.0, output_bytes=8.0, inputs=[n0])
    n2 = b.add_node("2", OpType.RELU, compute_us=1.0, output_bytes=8.0, inputs=[n0])
    n3 = b.add_node("3", OpType.RELU, compute_us=1.0, output_bytes=8.0, inputs=[n1])
    b.add_node("4", OpType.ADD, compute_us=1.0, output_bytes=8.0, inputs=[n2, n3])
    return b.build()


@pytest.mark.parametrize(
    "assignment, expected",
    [
        ([0, 0, 1, 1, 1], (True, True, True)),
        ([0, 0, 1, 0, 0], (False, True, False)),  # backward edge 2 -> 4
        ([0, 0, 0, 2, 2], (True, False, True)),  # chip 1 skipped
        ([0, 1, 2, 1, 2], (True, True, False)),  # triangle 0 -> 1 -> 2
    ],
)
def test_hand_broken_partitions(diamond, assignment, expected):
    assignment = np.array(assignment)
    assert eq_report(diamond, assignment, 3) == expected
    assert _library(diamond, assignment, 3) == expected


def test_agrees_on_solver_outputs_and_their_corruptions():
    graphs = build_dataset(0).test[:6]
    rng = np.random.default_rng(0)
    n_chips = 4
    seen = set()
    for graph in graphs:
        probs = np.full((graph.n_nodes, n_chips), 1.0 / n_chips)
        for _ in range(3):
            solved = sample_partition(graph, probs, n_chips, rng=rng)
            assert is_valid(graph, solved, n_chips)
            assert _library(graph, solved, n_chips) == (True, True, True)
            for _ in range(5):
                broken = solved.copy()
                idx = rng.integers(graph.n_nodes, size=2)
                broken[idx] = rng.integers(n_chips, size=2)
                ours = eq_report(graph, broken, n_chips)
                assert ours == _library(graph, broken, n_chips)
                seen.add(ours)
    assert len(seen) > 1  # the corruptions hit more than the valid case


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert np.isnan(geomean([]))
