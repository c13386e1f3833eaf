"""The engine's integer-bitmask triangle tables equal the matrix definition.

The reference below is the longest-path formulation of the addable-edge
table: a new chip edge ``x -> y`` is allowed iff no path ``x -> y`` of
length >= 2 exists and no existing edge ``(a, b)`` has ``a`` reaching ``x``
and ``y`` reaching ``b``; existing edges stay allowed.  ``violated`` is
whether some direct edge is not a longest path (Eq. 4).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.chipgraph import longest_paths
from repro.solver.engine import _Tables


def _reference(adj: np.ndarray) -> "tuple[np.ndarray, bool]":
    dist = longest_paths(adj)
    reach = (dist >= 0).astype(np.int64)
    bad = (reach.T @ adj.astype(np.int64) @ reach.T) > 0
    allowed = (~bad & (dist < 2)) | adj
    return allowed, bool(np.any(adj & (dist > 1)))


@st.composite
def _adjacency(draw):
    """A random low -> high chip adjacency on 2..8 chips."""
    c = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(c) for b in range(a + 1, c)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = np.zeros((c, c), dtype=bool)
    for (a, b), on in zip(pairs, present):
        adj[a, b] = on
    return adj


def _mask(adj: np.ndarray) -> int:
    c = adj.shape[0]
    return sum(1 << (int(a) * c + int(b)) for a, b in zip(*np.nonzero(adj)))


@settings(max_examples=300, deadline=None)
@given(adj=_adjacency())
def test_bitmask_tables_match_longest_path_reference(adj):
    c = adj.shape[0]
    tables = _Tables(_mask(adj), c, {})
    allowed, violated = _reference(adj)
    np.testing.assert_array_equal(tables.allowed, allowed)
    assert tables.violated == violated
    for v in range(c):
        succ = {d for d in range(c) if tables.succ[v] >> d & 1}
        pred = {d for d in range(c) if tables.pred[v] >> d & 1}
        assert succ == {v} | set(np.flatnonzero(allowed[v]).tolist())
        assert pred == {v} | set(np.flatnonzero(allowed[:, v]).tolist())
        assert set(tables.succ_excl[v]) == set(range(c)) - succ
        assert set(tables.pred_excl[v]) == set(range(c)) - pred


def test_exclusion_tuples_are_shared_between_entries():
    memo: dict = {}
    c = 5
    chain = (1 << (0 * c + 1)) | (1 << (1 * c + 2))  # edges 0->1->2
    a = _Tables(chain, c, memo)
    b = _Tables(chain | 1 << (3 * c + 4), c, memo)  # plus edge 3->4
    assert a.succ_excl[0] == (2,)  # 0->2 would skip the 0->1->2 path
    assert a.succ_excl[0] is b.succ_excl[0]
