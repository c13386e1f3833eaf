"""``sample_step`` is ``get_domain`` + an inverse-CDF draw + ``set_domain``.

The reference loop below is the SAMPLE step written against the public
interface; both loops share a seed, so equal decision counts, equal
domains and equal generator states after every step pin that the fused
step consumes the RNG exactly like the reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.engine import ConstraintSolver
from tests.conftest import random_dag


def _reference_draw(domain: np.ndarray, weights: np.ndarray, rng) -> int:
    if domain.size == 1:
        return int(domain[0])
    w = weights.take(domain).tolist()
    total = 0.0
    for x in w:
        total += x
    if not 0.0 < total < np.inf:
        return int(domain[rng.integers(domain.size)])
    r = rng.random() * total
    acc = 0.0
    for i in range(domain.size - 1):
        acc += w[i]
        if r < acc:
            return int(domain[i])
    return int(domain[-1])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_nodes=st.integers(3, 24),
    n_chips=st.integers(2, 6),
    zero_rows=st.booleans(),
)
def test_sample_step_matches_get_domain_set_domain(seed, n_nodes, n_chips, zero_rows):
    graph = random_dag(seed, n_nodes)
    wrng = np.random.default_rng(seed)
    probs = wrng.random((n_nodes, n_chips))
    if zero_rows:
        probs[::3] = 0.0  # unusable weights fall back to a uniform draw
    fused, ref = ConstraintSolver(graph, n_chips), ConstraintSolver(graph, n_chips)
    rng_f, rng_r = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    rows = probs.tolist()
    order = graph.topological_order().tolist()
    i_f = i_r = 0
    for _ in range(4 * n_nodes):
        if i_f >= n_nodes:
            break
        u = order[i_f]
        i_f = fused.sample_step(u, rows[u], rng_f)
        i_r = ref.set_domain(u, _reference_draw(ref.get_domain(u), probs[u], rng_r))
        assert i_f == i_r
        assert fused._masks == ref._masks
        assert rng_f.bit_generator.state == rng_r.bit_generator.state
