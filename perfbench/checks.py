"""Output checks written for the benchmark, independent of the solver.

``eq_report`` re-derives the paper's static constraints (Equations 2-4)
edge by edge in plain Python, without calling ``repro.solver``.  The
benchmark runs it on every partition the program returns; its own test
(``test_checks.py``) pins it against ``repro.solver.validate_partition``.
"""

from __future__ import annotations

import math

import numpy as np


def eq_report(graph, assignment, n_chips: int) -> "tuple[bool, bool, bool]":
    """``(eq2, eq3, eq4)`` for a uni-ring partition of ``graph``.

    * Eq. 2, acyclic dataflow: ``f(u) <= f(v)`` on every edge whose source
      is not a replicable constant.
    * Eq. 3, no skipping: the used chip ids are exactly ``0..max``.
    * Eq. 4, triangle dependency: every direct chip-to-chip dependency is
      also the longest path between its two chips.  It presumes Eq. 2, so
      it reads ``False`` whenever Eq. 2 fails.
    """
    chips = [int(c) for c in np.asarray(assignment).ravel()]
    if len(chips) != graph.n_nodes or any(c < 0 or c >= n_chips for c in chips):
        return False, False, False
    constant = [bool(x) for x in graph.is_replicable()]
    chip_edges = set()
    eq2 = True
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        if constant[u]:
            continue
        if chips[u] > chips[v]:
            eq2 = False
        elif chips[u] < chips[v]:
            chip_edges.add((chips[u], chips[v]))
    eq3 = set(chips) == set(range(max(chips) + 1)) if chips else True
    if not eq2:
        return False, eq3, False
    successors: "dict[int, set]" = {}
    for a, b in chip_edges:
        successors.setdefault(a, set()).add(b)

    def reaches(start: int, goal: int) -> bool:
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in successors.get(node, ()):
                if nxt not in seen and nxt <= goal:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    eq4 = all(
        not any(k != b and reaches(k, b) for k in successors[a])
        for a, b in chip_edges
    )
    return True, eq3, eq4


def is_valid(graph, assignment, n_chips: int) -> bool:
    """True when the partition satisfies Equations 2-4."""
    return all(eq_report(graph, assignment, n_chips))


def geomean(values) -> float:
    """Geometric mean of positive values (NaN for an empty input)."""
    values = [float(v) for v in values]
    if not values or min(values) <= 0.0:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))
