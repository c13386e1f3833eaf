"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graphs.builders import GraphBuilder
from repro.graphs.graph import CompGraph
from repro.graphs.ops import OpType
from repro.hardware.chip import ChipSpec
from repro.hardware.package import MCMPackage
from repro.utils import threads


@pytest.fixture
def diamond_graph() -> CompGraph:
    """input -> (left, right) -> join -> out: the smallest branchy DAG."""
    b = GraphBuilder("diamond")
    inp = b.add_node("in", OpType.INPUT, compute_us=1.0, output_bytes=100.0)
    left = b.add_node("left", OpType.MATMUL, compute_us=10.0, output_bytes=200.0,
                      param_bytes=1000.0, inputs=[inp])
    right = b.add_node("right", OpType.RELU, compute_us=5.0, output_bytes=200.0,
                       inputs=[inp])
    join = b.add_node("join", OpType.ADD, compute_us=2.0, output_bytes=200.0,
                      inputs=[left, right])
    b.add_node("out", OpType.OUTPUT, compute_us=0.5, output_bytes=50.0, inputs=[join])
    return b.build()


@pytest.fixture
def chain_graph() -> CompGraph:
    """A 10-node linear chain with increasing costs."""
    b = GraphBuilder("chain")
    prev = b.add_node("n0", OpType.INPUT, compute_us=1.0, output_bytes=64.0)
    for i in range(1, 10):
        prev = b.add_node(
            f"n{i}", OpType.RELU, compute_us=float(i), output_bytes=64.0,
            inputs=[prev],
        )
    return b.build()


@pytest.fixture
def small_package() -> MCMPackage:
    """A 4-chip package with small SRAM for memory-pressure tests."""
    return MCMPackage(n_chips=4, chip=ChipSpec(sram_bytes=1 * 2**20))


@pytest.fixture
def roomy_package() -> MCMPackage:
    """A 4-chip package with SRAM large enough for any test graph."""
    return MCMPackage(n_chips=4, chip=ChipSpec(sram_bytes=2**34))


def random_dag(seed: int, n_nodes: int, edge_prob: float = 0.25) -> CompGraph:
    """Deterministic random DAG: edges only from lower to higher node ids."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(f"dag{seed}")
    for i in range(n_nodes):
        b.add_node(
            f"n{i}",
            OpType.RELU if i else OpType.INPUT,
            compute_us=float(rng.uniform(0.5, 10.0)),
            output_bytes=float(rng.uniform(16, 4096)),
            param_bytes=float(rng.uniform(0, 2048)),
        )
    for j in range(1, n_nodes):
        preds = [i for i in range(j) if rng.random() < edge_prob]
        if not preds:
            preds = [int(rng.integers(0, j))]
        for i in preds:
            b.add_edge(i, j)
    return b.build()


# Hypothesis strategy: parameters for random_dag.
dag_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=2, max_value=40),      # nodes
)


@pytest.fixture
def blas_at_4(monkeypatch):
    """OpenBLAS at 4 threads with no thread variable in the environment,
    so a budget's lowering is observable; the count is restored after."""
    if threads.blas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    for name in threads.THREAD_ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    before = threads.blas_threads()
    threads.set_blas_threads(4)
    yield 4
    threads.set_blas_threads(before)
