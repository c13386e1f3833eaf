"""SAMPLE and FIX solver strategies (the paper's Algorithms 1 and 2).

Both strategies walk a node order, restricting one node's domain per step
through :meth:`ConstraintSolver.set_domain` (or its fused sampling form,
:meth:`ConstraintSolver.sample_step`); the decision count returned by the
solver is the loop index, so a back-track transparently rewinds the walk.

* **SAMPLE** (Algorithm 1): at each node, sample a chip from the policy's
  probability distribution restricted to the current valid domain.
* **FIX** (Algorithm 2): first pass keeps the candidate assignment wherever
  it is valid; second pass randomly assigns whatever remains open.

Completeness substitution (documented in DESIGN.md): the paper drives
CP-SAT, whose clause learning escapes the deep dead-ends that high-fan-in
graph motifs (embedding-shard merges, attention-head fan-outs) create under
the triangle constraint.  This solver uses chronological back-tracking, so
the strategies add two standard solver-internal heuristics instead:

1. the default node order is a *random linear extension* (a fresh random
   order that respects the partial order, keeping propagation exact along
   the frontier), and
2. *guided restarts*: a run that stops progressing is restarted, and later
   restarts multiply the value-ordering distribution by a topological-
   position prior of escalating sharpness (nodes near pipeline position
   ``p`` favour chip ``floor(p * C)``).  Restart 0 is fully faithful to the
   caller's distribution, so easy instances are unaffected; the
   multiplicative blend keeps the caller's preferences in play on hard
   instances while suppressing the far-from-position values that wedge the
   triangle constraint.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import CompGraph
from repro.solver.engine import ConstraintSolver, Unsatisfiable
from repro.solver.fallback import contiguous_partition
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_matrix

#: Abort a run when the frontier has not advanced for this many driver steps.
#: Heavy local back-tracking is normal near chip boundaries (a few hundred
#: steps without net progress while a motif re-seats), so the patience must
#: comfortably exceed those bursts.
_STALL_PATIENCE_FACTOR = 1.0
_STALL_PATIENCE_MIN = 512
#: Restart budget before handing the instance to the constructive fallback.
_MAX_RESTARTS = 12


def _guide_concentration(restart: int) -> float:
    """Prior sharpness schedule; 0 disables guiding.

    Even restarts (including the first attempt) stay faithful to the
    caller's distribution — graphs with long sequential chains (RNNs)
    solve easily unguided and are actively hurt by the positional prior.
    Odd restarts escalate the prior — fan-out/merge motifs (attention
    heads, embedding shards) need it to avoid triangle-constraint wedging.
    """
    if restart % 2 == 0:
        return 0.0
    return min(3.0 + 1.5 * ((restart + 1) // 2), 12.0)


def _resolve_order(order, graph: CompGraph, rng: np.random.Generator) -> np.ndarray:
    """Default to a fresh random linear extension, as the paper's solver
    defaults to a fresh random order per call."""
    if order is None:
        return graph.random_topological_order(rng)
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(graph.n_nodes)):
        raise ValueError("order must be a permutation of all node ids")
    return order


def topo_prior(graph: CompGraph, n_chips: int, concentration: float = 1.5) -> np.ndarray:
    """``(N, C)`` distribution concentrating node ``u`` near its pipeline chip.

    The prior favours ``floor(position[u] * C)`` with geometric decay, i.e.
    a balanced contiguous placement — always reachable for the solver and a
    sensible value-ordering default for hard instances.
    """
    position = graph.compute_position()
    target = np.minimum((position * n_chips).astype(np.int64), n_chips - 1)
    chips = np.arange(n_chips)
    logits = -concentration * np.abs(chips[None, :] - target[:, None])
    probs = np.exp(logits)
    return probs / probs.sum(axis=1, keepdims=True)


def _guide(graph: CompGraph, probs: np.ndarray, n_chips: int, restart: int) -> np.ndarray:
    """Multiplicatively sharpen ``probs`` with the topological prior.

    Restart 0 returns ``probs`` unchanged.  Later restarts return
    ``probs * prior`` (renormalised), which suppresses the scattered
    placements that wedge the triangle constraint while preserving the
    caller's relative preferences among nearby chips.
    """
    conc = _guide_concentration(restart)
    if conc <= 0.0:
        return probs
    prior = topo_prior(graph, n_chips, concentration=conc)
    blended = probs * prior
    totals = blended.sum(axis=1, keepdims=True)
    # Rows where the product underflows fall back to the prior alone.
    bad = (totals <= 0).reshape(-1)
    if np.any(bad):
        blended[bad] = prior[bad]
        totals = blended.sum(axis=1, keepdims=True)
    return blended / totals


def _run_driver(
    solver: ConstraintSolver,
    order: np.ndarray,
    step_fn,
    n_steps_target: int,
) -> bool:
    """Drive ``step_fn`` until ``n_steps_target`` decisions or a stall.

    ``step_fn(i, u)`` commits one decision on node ``u`` and returns the
    new decision count.  Returns True when the target was reached.
    """
    n = order.size
    patience = max(int(_STALL_PATIENCE_FACTOR * n), _STALL_PATIENCE_MIN)
    step_budget = n_steps_target + 3 * patience
    i = 0
    best = 0
    steps = 0
    since_progress = 0
    while i < n_steps_target:
        u = int(order[i % n])
        try:
            i = step_fn(i, u)
        except Unsatisfiable:
            # Accumulated root-level exclusions wedged this run entirely;
            # a restart clears them.
            return False
        steps += 1
        if i > best:
            best = i
            since_progress = 0
        else:
            since_progress += 1
            if since_progress >= patience:
                return False
        if steps >= step_budget:
            return False
    return True


def sample_partition(
    graph: CompGraph,
    probs: np.ndarray,
    n_chips: int,
    rng=None,
    order=None,
    solver: "ConstraintSolver | None" = None,
    topology=None,
) -> np.ndarray:
    """Algorithm 1 (SAMPLE): draw a valid partition guided by ``probs``.

    Parameters
    ----------
    graph:
        Graph to partition.
    probs:
        ``(N, C)`` row-stochastic matrix — the policy output ``P``.
    n_chips:
        Number of chiplets.
    rng:
        Seed or generator for sampling.
    order:
        Node visit order; defaults to a fresh random linear extension.
    solver:
        Reuse an existing (reset) solver; a new one is built by default.
        A reused solver's topology takes precedence over ``topology``.
    topology:
        Platform interconnect for a freshly built solver; ``None`` is the
        legacy uni-ring.

    Returns
    -------
    ``(N,)`` array: a partition satisfying all static constraints.
    """
    rng = as_generator(rng)
    probs = check_probability_matrix(probs, graph.n_nodes, n_chips)
    s = (
        solver
        if solver is not None
        else ConstraintSolver(graph, n_chips, topology=topology)
    )
    if s.n_decisions:
        raise ValueError("solver must be freshly reset")

    for restart in range(_MAX_RESTARTS):
        run_order = (
            _resolve_order(order, graph, rng)
            if restart == 0
            else graph.random_topological_order(rng)
        )
        # Rows as Python floats: the solver's draw reads one per domain chip.
        rows = _guide(graph, probs, n_chips, restart).tolist()

        def step(i: int, u: int) -> int:
            return s.sample_step(u, rows[u], rng)

        if _run_driver(s, run_order, step, graph.n_nodes):
            return s.assignment()
        s.reset()
    # Terminal fallback: always-valid contiguous partition (see fix_partition).
    return contiguous_partition(graph, n_chips)


def fix_partition(
    graph: CompGraph,
    candidate: np.ndarray,
    n_chips: int,
    rng=None,
    order=None,
    solver: "ConstraintSolver | None" = None,
    topology=None,
) -> np.ndarray:
    """Algorithm 2 (FIX): repair ``candidate`` into a valid partition.

    The first sweep keeps every candidate value that is still in its node's
    valid domain; the second sweep assigns the remaining nodes from their
    domains (uniformly on the first attempt, guided on later restarts).

    Parameters
    ----------
    graph:
        Graph to partition.
    candidate:
        ``(N,)`` proposed assignment ``y`` (possibly invalid).
    n_chips:
        Number of chiplets.
    rng, order, solver, topology:
        As in :func:`sample_partition`.

    Returns
    -------
    ``(N,)`` array: a valid partition agreeing with ``candidate`` wherever
    the constraints allowed it.
    """
    rng = as_generator(rng)
    candidate = np.asarray(candidate, dtype=np.int64)
    if candidate.shape != (graph.n_nodes,):
        raise ValueError(f"candidate must have shape ({graph.n_nodes},)")
    if candidate.size and (candidate.min() < 0 or candidate.max() >= n_chips):
        raise ValueError(f"candidate contains chip ids outside [0, {n_chips})")
    s = (
        solver
        if solver is not None
        else ConstraintSolver(graph, n_chips, topology=topology)
    )
    if s.n_decisions:
        raise ValueError("solver must be freshly reset")

    n = graph.n_nodes
    uniform = np.full((n, n_chips), 1.0 / n_chips)
    for restart in range(_MAX_RESTARTS):
        run_order = (
            _resolve_order(order, graph, rng)
            if restart == 0
            else graph.random_topological_order(rng)
        )
        guided = _guide(graph, uniform, n_chips, restart).tolist()
        # A candidate can be individually feasible at every step yet wedge
        # the completion; since phase 1 replays it identically, plain
        # restarts cannot escape.  Restarts therefore *thin* the candidate:
        # guided restarts drop values outside a band of the node's pipeline
        # position (the scattered wedge pattern), and every restart drops a
        # growing random subset so successive attempts genuinely differ.
        keep = np.ones(n, dtype=bool)
        if restart > 0:
            if _guide_concentration(restart) > 0:
                position = graph.compute_position()
                target = np.minimum(
                    (position * n_chips).astype(np.int64), n_chips - 1
                )
                keep &= np.abs(candidate - target) <= 2
            keep &= rng.random(n) < 0.75 ** ((restart + 1) // 2)

        def step(i: int, u: int) -> int:
            if i >= n:
                return s.sample_step(u, guided[u], rng)
            domain = s.get_domain(u)
            if keep[u] and candidate[u] in domain:
                return s.set_domain(u, int(candidate[u]))
            # Leave the node open; this no-op decision advances i.
            return s.set_domain(u, domain)

        if _run_driver(s, run_order, step, 2 * n):
            return s.assignment()
        s.reset()
    # Terminal fallback: the constructive contiguous partition is always
    # valid; reaching it means the candidate resisted every repair attempt.
    return contiguous_partition(graph, n_chips)
