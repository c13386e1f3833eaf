"""Propagation-based constraint solver with the paper's driver interface.

The solver maintains a *domain* (set of still-valid chip IDs) for every node
and exposes exactly the interface of the paper's Algorithms 1 and 2:

* ``get_domain(u)`` — query the current valid domain of node ``u``.
* ``set_domain(u, values)`` — restrict ``u``'s domain, run constraint
  propagation, and return the new decision count; on a dead end the solver
  back-tracks (undoing decisions and excluding the offending values) and
  returns a *smaller* count, telling the driver to resume from that node.

Propagation covers the three static constraints:

* **Acyclic dataflow** (Eq. 2) is a conjunction of ``f(u) <= f(v)``
  constraints, for which bounds propagation over the DAG is exact: the
  lower bound of a node flows to its successors and the upper bound to its
  predecessors.
* **No skipping chips** (Eq. 3) is tracked through per-chip coverage (which
  nodes could still land on chip ``d``); a chip below the largest forced
  lower bound with zero coverage is a dead end, and on a complete
  assignment the check is exact.
* **Triangle dependency** (Eq. 4) is tracked through an incrementally
  maintained chip-dependency edge multiset; since edges are only added as
  nodes become fixed, any longest-path violation among current edges is
  permanent and triggers an immediate back-track.

Internally the domain state is stored *chip-major*: one node-set bitmask
(an arbitrary-precision int, one bit per node) per chip, rather than one
chip-mask per node.  Bounds propagation then runs word-parallel — a lower
bound raised on node ``u`` excludes every descendant (a precomputed bitmask)
from the low chips in a handful of integer ops instead of an explicit
BFS wave — and back-tracking restores O(chips) snapshots instead of walking
per-node undo trails.  The node-major view (``_masks``, ``_cover``) is
derived on demand.

The per-wave cost follows waves and chips, not the number of nodes a wave
fixes:

* **Per-segment mask flush.**  A wave that fixes nodes ORs each node's
  neighbour set into one union per chip value and masks those unions out
  of the chip domains once per *segment*: a run of nodes that saw the same
  chip adjacency.  A node's own new chip edge can tighten the triangle
  tables, so the pending unions are flushed under the old tables first.
* **Plain-int edge multiset.**  The chip-edge counts live in a flat
  ``list[int]`` (index ``a * C + b``), so snapshots and edge bookkeeping
  never touch numpy; ``_edge_count`` is a derived ``(C, C)`` array view
  with a setter, for diagnostics and white-box tests.
* **Integer triangle tables.**  The addable-edge table of a chip
  adjacency is built from per-chip reachability bitmasks (no longest-path
  matrix), memoised by the adjacency, and carries for each chip value the
  tuple of chips its neighbours must leave.
* **One frame per SAMPLE step.**  :meth:`ConstraintSolver.sample_step`
  queries the domain, applies the triangle look-ahead, draws a value and
  commits it, consuming the RNG exactly as ``get_domain`` + draw +
  ``set_domain`` would.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graphs.graph import CompGraph


#: Most chips a solver handles: a node's domain is one chip bitmask.
MAX_CHIPS = 63


class Unsatisfiable(RuntimeError):
    """Raised when no valid partition exists under the accumulated exclusions."""


#: Per-byte bitmask -> set-bit-indices lookup, the building block for
#: ``get_domain``'s mask -> array conversion.  The arrays are write-protected
#: because single-byte masks return them without copying.
_BYTE_BITS: list = []
for _byte in range(256):
    _arr = np.array([_i for _i in range(8) if _byte >> _i & 1], dtype=np.int64)
    _arr.setflags(write=False)
    _BYTE_BITS.append(_arr)
del _byte, _arr
#: The same table as tuples of Python ints, for the sampling hot path.
_BYTE_TUPLES = [tuple(_arr.tolist()) for _arr in _BYTE_BITS]


def _mask_to_values(mask: int) -> np.ndarray:
    """Set-bit indices of ``mask`` (ascending), via the per-byte table.

    Single-byte masks (every platform up to 8 chiplets) resolve to a shared
    read-only array with no allocation at all.
    """
    if mask < 256:
        return _BYTE_BITS[mask]
    parts = []
    base = 0
    while mask:
        byte = mask & 0xFF
        if byte:
            parts.append(_BYTE_BITS[byte] + base)
        mask >>= 8
        base += 8
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _draw(mask: int, weights, rng) -> int:
    """Draw a chip from the set bits of ``mask`` following ``weights``.

    Inverse-CDF sampling over the (tiny) domain in ascending chip order;
    ``weights[d]`` is chip ``d``'s weight (a Python float).  Weights that
    sum to zero, a negative, ``inf`` or ``nan`` fall back to a uniform
    draw.  ``rng.choice`` carries tens of microseconds of generic-dispatch
    overhead per call, which would dominate each SAMPLE step at search
    rates.
    """
    if mask < 256:
        chips = _BYTE_TUPLES[mask]
    else:
        chips = tuple(_mask_to_values(mask).tolist())
    total = 0.0
    for d in chips:
        total += weights[d]
    if not 0.0 < total < np.inf:  # catches 0, negatives, inf, and nan
        return chips[rng.integers(len(chips))]
    r = rng.random() * total
    acc = 0.0
    for d in chips[:-1]:
        acc += weights[d]
        if r < acc:
            return d
    return chips[-1]


class _Conflict(Exception):
    """Internal signal: the current restriction emptied a domain or broke Eq. 3/4."""


class _Tables:
    """Triangle tables of one chip adjacency, as integer bitmasks.

    ``allowed_rows[x]`` has bit ``y`` set iff a new direct chip edge
    ``x -> y`` keeps Eq. 4 satisfiable (existing edges stay allowed).
    ``succ[c]`` / ``pred[c]`` are the values a successor / predecessor of a
    node fixed at ``c`` may take, and ``succ_excl[c]`` / ``pred_excl[c]``
    the chips they must leave (tuples shared between entries).
    ``violated`` is whether the adjacency itself breaks Eq. 4.
    """

    __slots__ = ("allowed_rows", "violated", "succ", "pred", "succ_excl", "pred_excl")

    def __init__(self, adj_mask: int, n_chips: int, excluded: dict):
        c = n_chips
        row = (1 << c) - 1
        out = [adj_mask >> (a * c) & row for a in range(c)]
        # Chip edges go low -> high, so one descending sweep gives, per
        # chip, the chips reachable through >= 1 edge (``strict``) and
        # through a path of >= 2 edges (longest path >= 2, ``long2``).
        reach = [0] * c
        strict = [0] * c
        long2 = [0] * c
        for a in range(c - 1, -1, -1):
            s = l2 = 0
            m = out[a]
            while m:
                b = m & -m
                m ^= b
                j = b.bit_length() - 1
                s |= reach[j]
                l2 |= strict[j]
            strict[a] = s
            reach[a] = s | (1 << a)
            long2[a] = l2
        # reached_by[y]: chips that reach ``y`` (including ``y``).
        reached_by = [0] * c
        for a in range(c):
            m = reach[a]
            while m:
                b = m & -m
                m ^= b
                reached_by[b.bit_length() - 1] |= 1 << a
        # A new edge x -> y is addable iff no path x -> y of length >= 2
        # exists and no existing edge (a, b) has ``a`` reaching ``x`` and
        # ``y`` reaching ``b`` (which would stretch a-b's longest path).
        allowed = []
        for x in range(c):
            targets = 0
            m = reached_by[x]
            while m:
                b = m & -m
                m ^= b
                targets |= out[b.bit_length() - 1]
            bad = 0
            while targets:
                b = targets & -targets
                targets ^= b
                bad |= reached_by[b.bit_length() - 1]
            allowed.append((row & ~bad & ~long2[x]) | out[x])
        self.allowed_rows = tuple(allowed)
        self.violated = any(out[a] & long2[a] for a in range(c))
        self.succ = tuple(allowed[v] | (1 << v) for v in range(c))
        pred = []
        for v in range(c):
            col = 1 << v
            for x in range(c):
                if allowed[x] >> v & 1:
                    col |= 1 << x
            pred.append(col)
        self.pred = tuple(pred)
        self.succ_excl = tuple(_excluded(m, c, excluded) for m in self.succ)
        self.pred_excl = tuple(_excluded(m, c, excluded) for m in self.pred)

    @property
    def allowed(self) -> np.ndarray:
        """``(C, C)`` boolean addable-edge matrix (derived view)."""
        c = len(self.allowed_rows)
        return np.array(
            [[bool(m >> d & 1) for d in range(c)] for m in self.allowed_rows],
            dtype=bool,
        )

    def __getitem__(self, key: str):
        """Mapping-style access (``entry["allowed"]``, ``entry["violated"]``)."""
        return getattr(self, key)


def _excluded(mask: int, n_chips: int, memo: dict) -> tuple:
    """Ascending chips *not* in ``mask``, interned in ``memo``."""
    out = memo.get(mask)
    if out is None:
        out = tuple(d for d in range(n_chips) if not mask >> d & 1)
        memo[mask] = out
    return out


class ConstraintSolver:
    """Interactive constraint solver over chip-assignment domains.

    Parameters
    ----------
    graph:
        The computation graph being partitioned.
    n_chips:
        Number of chiplets (at most 63 so a domain fits in one bitmask).
    triangle_frontier:
        Eager re-propagation of the one-hop triangle masks (see
        :meth:`_propagate`).  ``None`` (default) keeps the heuristic —
        enabled only for tight chip counts (``n_chips <= 4``); pass
        ``True``/``False`` to force it either way, e.g. to enable the
        strengthening on wedge-heavy instances above 4 chips.
    topology:
        Interconnect the partition must be routable on
        (:class:`repro.hardware.topology.Topology`).  ``None`` or any
        total-order topology (the uni-ring) keeps the exact legacy engine:
        Eq. 2 bounds propagation, the no-skipping coverage check, and the
        triangle constraint (Eq. 4).  Other topologies run the
        reachability-generalised propagation instead
        (:meth:`_propagate_general`): every precedence restriction is
        derived from the topology's chip-reachability matrix, and the
        triangle constraint — a uni-ring compiler artifact — does not
        apply.  The bounds propagation *is* the reachability propagation
        specialised to the total order (``reach_from(c) = {c..C-1}``,
        ``reach_to(c) = {0..c}``), which is why the uni-ring reduces
        bit-for-bit to the legacy code path.
    """

    def __init__(
        self,
        graph: CompGraph,
        n_chips: int,
        triangle_frontier: "bool | None" = None,
        topology=None,
    ):
        if not 1 <= n_chips <= MAX_CHIPS:
            raise ValueError(f"n_chips must be in [1, {MAX_CHIPS}]")
        if topology is not None and topology.n_chips != n_chips:
            raise ValueError(
                f"topology is for {topology.n_chips} chips, solver got {n_chips}"
            )
        self.graph = graph
        self.n_chips = n_chips
        self.topology = topology
        #: Reachability-generalised mode: active for any topology whose
        #: reachability is not the chip-ID total order.  Total-order
        #: topologies (the uni-ring) take the legacy engine unchanged.
        self._general = topology is not None and not topology.is_total_order
        if self._general:
            # Per-chip reachability sets, as chip-index lists: which chips
            # can reach ``d`` / are reachable from ``d`` (both include
            # ``d``).  These generalise the ordered engine's prefix/suffix
            # unions.
            reach = topology.reachable
            self._reach_to_list = [
                np.flatnonzero(reach[:, d]).tolist() for d in range(n_chips)
            ]
            self._reach_from_list = [
                np.flatnonzero(reach[d]).tolist() for d in range(n_chips)
            ]
        #: Re-apply the one-hop triangle masks of every fixed node whenever
        #: new chip edges tighten the tables (see :meth:`_propagate`).  The
        #: strengthening is sound and catches triangle wedges hundreds of
        #: driver steps early where the chip-dependency graph has no slack
        #: (measured 2.7-17x on 4-chip instances), but on permissive
        #: higher-chip-count instances the extra pruning rounds and the
        #: trajectory shifts they cause cost more than the wedges they
        #: avoid — so the heuristic default enables it only for tight chip
        #: counts.  Public knob; override freely (constructor argument or
        #: attribute).
        self.triangle_frontier = (
            n_chips <= 4 if triangle_frontier is None else bool(triangle_frontier)
        )
        n = graph.n_nodes

        replicable = graph.is_replicable()
        # Constraint-relevant adjacency: edges out of replicable constants
        # are exempt from all placement constraints.
        self._succs: list[list[int]] = [[] for _ in range(n)]
        self._preds: list[list[int]] = [[] for _ in range(n)]
        for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
            if replicable[s]:
                continue
            self._succs[s].append(d)
            self._preds[d].append(s)

        # Node-set bitmasks for word-parallel propagation: direct neighbour
        # sets plus transitive descendant/ancestor closures over the
        # constraint edges.
        self._full = (1 << n) - 1 if n else 0
        self._succ_bits = [0] * n
        self._pred_bits = [0] * n
        for u in range(n):
            sb = 0
            for w in self._succs[u]:
                sb |= 1 << w
            self._succ_bits[u] = sb
            pb = 0
            for w in self._preds[u]:
                pb |= 1 << w
            self._pred_bits[u] = pb
        order = graph.topological_order().tolist()
        self._desc = [0] * n
        for u in reversed(order):
            acc = 0
            for w in self._succs[u]:
                acc |= (1 << w) | self._desc[w]
            self._desc[u] = acc
        self._anc = [0] * n
        for v in order:
            acc = 0
            for u in self._preds[v]:
                acc |= (1 << u) | self._anc[u]
            self._anc[v] = acc

        self.reset()

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard all decisions and exclusions; restore full domains."""
        n = self.graph.n_nodes
        self._avail: list[int] = [self._full] * self.n_chips
        # With a single chip every domain starts single-valued (fixed); no
        # propagation wave will ever run to discover that.
        self._fixed_set = self._full if self.n_chips == 1 else 0
        # Chip values of fixed nodes.  Not snapshotted: every read is
        # guarded by ``_fixed_set`` (which is), so entries left stale by a
        # rewind are unreachable until the node is fixed again, which
        # rewrites them.
        self._values: list[int] = [0] * n
        # Per-chip unions of the fixed nodes' neighbour sets.  When a new
        # chip edge tightens the triangle tables these let the wave re-apply
        # the one-hop masks to *every* fixed node in O(chips^2) mask ops,
        # catching wedges the moment the edge appears instead of hundreds
        # of driver steps later.
        self._succ_frontier: list[int] = [0] * self.n_chips
        self._pred_frontier: list[int] = [0] * self.n_chips
        self._max_lo = 0
        # Chip-edge multiset: entry ``a * C + b`` counts fixed graph edges
        # from chip ``a`` to chip ``b``.
        self._edge_flat: list[int] = [0] * (self.n_chips * self.n_chips)
        self._adj_mask = 0  # bit a*C+b set iff the count of edge (a, b) > 0
        # Per-branch closure memory: nodes whose descendant (ancestor)
        # exclusions at each chip level were already applied.  Monotone with
        # the domains, so snapshots restore it consistently.
        self._done_lo: list[int] = [0] * self.n_chips
        self._done_hi: list[int] = [0] * self.n_chips
        self._decisions: list[tuple] = []  # (node, tried_mask, snapshot)
        # Trailing decisions whose snapshot is still owed (see _decide).
        self._unsnapped = 0
        # Triangle tables memoised by the adjacency bitmask: back-tracking
        # revisits the same chip graphs constantly, so keying the cache by
        # the adjacency itself (not a version counter) gives high hit rates.
        # ``_excluded_memo`` interns the per-value exclusion tuples the
        # entries share.
        if not hasattr(self, "_tables_memo"):
            self._tables_memo: dict[int, _Tables] = {}
            self._excluded_memo: dict[int, tuple] = {}

    @property
    def _edge_count(self) -> np.ndarray:
        """``(C, C)`` chip-edge multiset counts (derived view)."""
        c = self.n_chips
        return np.array(self._edge_flat, dtype=np.int64).reshape(c, c)

    @_edge_count.setter
    def _edge_count(self, counts) -> None:
        self._edge_flat = np.asarray(counts, dtype=np.int64).reshape(-1).tolist()

    def _snapshot(self) -> tuple:
        """O(chips) copy of all branch state (masks are immutable ints).

        Also settles the snapshots owed to trailing no-op decisions: the
        state has not changed since they were made.
        """
        snap = (
            list(self._avail),
            self._fixed_set,
            self._max_lo,
            list(self._edge_flat),
            self._adj_mask,
            list(self._done_lo),
            list(self._done_hi),
            list(self._succ_frontier),
            list(self._pred_frontier),
        )
        if self._unsnapped:
            decisions = self._decisions
            for i in range(len(decisions) - self._unsnapped, len(decisions)):
                node, tried_mask, _ = decisions[i]
                decisions[i] = (node, tried_mask, snap)
            self._unsnapped = 0
        return snap

    def _restore(self, snap: tuple) -> None:
        """Rewind to a snapshot taken by :meth:`_snapshot`."""
        self._avail = list(snap[0])
        self._fixed_set = snap[1]
        self._max_lo = snap[2]
        self._edge_flat = list(snap[3])
        self._adj_mask = snap[4]
        self._done_lo = list(snap[5])
        self._done_hi = list(snap[6])
        self._succ_frontier = list(snap[7])
        self._pred_frontier = list(snap[8])

    # ------------------------------------------------------------------
    # Node-major views (queries, diagnostics, and white-box tests)
    # ------------------------------------------------------------------
    def _domain_mask(self, node: int) -> int:
        """Chip-bitmask view of one node's domain."""
        mask = 0
        for d in range(self.n_chips):
            if self._avail[d] >> node & 1:
                mask |= 1 << d
        return mask

    @property
    def _masks(self) -> list[int]:
        """Per-node chip-bitmask domains (derived view)."""
        return [self._domain_mask(u) for u in range(self.graph.n_nodes)]

    @property
    def _cover(self) -> list[int]:
        """Per-chip count of nodes that could still land there."""
        return [self._avail[d].bit_count() for d in range(self.n_chips)]

    @property
    def n_decisions(self) -> int:
        """Number of committed decisions (the paper's loop index ``i``)."""
        return len(self._decisions)

    def is_fixed(self, node: int) -> bool:
        """True when the node's domain is a single chip."""
        return bool(self._fixed_set >> node & 1)

    def _fixed_value(self, node: int) -> int:
        """The chip a fixed node sits on (valid only while it is fixed)."""
        return self._values[node]

    def get_domain(self, node: int) -> np.ndarray:
        """Valid chip IDs currently available for ``node`` (ascending).

        On top of the propagated domain this applies *triangle look-ahead*:
        values whose implied chip-dependency edge (with an already-fixed
        neighbour) would immediately violate Equation 4 are filtered out.
        The look-ahead is sound within the current search branch — chip
        edges only accumulate, so a value invalid now stays invalid — and
        it is what lets the solver handle production-size graphs without
        CP-SAT-style clause learning.
        """
        mask = self._domain_mask(node)
        if mask & (mask - 1) == 0:
            return _mask_to_values(mask)
        if self._general:
            # The reachability propagation already restricts neighbours of
            # fixed nodes through their full domains (stronger than the
            # one-hop look-ahead), and Eq. 4 does not apply off the ring.
            return _mask_to_values(mask)
        pruned = self._triangle_prune(node, mask)
        # Never return an empty domain from look-ahead alone; let
        # set_domain discover the conflict and back-track properly.
        return _mask_to_values(pruned if pruned else mask)

    def _triangle_prune(self, node: int, mask: int) -> int:
        """Intersect ``mask`` with chip edges implied by fixed neighbours.

        ``succ[a]`` is exactly ``{a} | {d : allowed[a, d]}``, so ANDing the
        masks of every fixed neighbour reproduces the per-value filter in
        pure bit arithmetic.
        """
        fixed = self._fixed_set
        values = self._values
        entry = self._tables()
        keep = -1
        bit = self._pred_bits[node] & fixed
        if bit:
            succ = entry.succ
            while bit:
                b = bit & -bit
                keep &= succ[values[b.bit_length() - 1]]
                bit ^= b
        bit = self._succ_bits[node] & fixed
        if bit:
            pred = entry.pred
            while bit:
                b = bit & -bit
                keep &= pred[values[b.bit_length() - 1]]
                bit ^= b
        return mask if keep == -1 else mask & keep

    def assignment(self) -> np.ndarray:
        """The complete assignment; raises if any node is still unfixed."""
        n = self.graph.n_nodes
        if self._fixed_set != self._full:
            unfixed = (~self._fixed_set & self._full)
            u = (unfixed & -unfixed).bit_length() - 1
            raise RuntimeError(f"node {u} is not fixed; solve to completion first")
        out = np.empty(n, dtype=np.int64)
        for d in range(self.n_chips):
            m = self._avail[d]
            while m:
                b = m & -m
                out[b.bit_length() - 1] = d
                m ^= b
        return out

    # ------------------------------------------------------------------
    # Triangle tables (memoised per chip adjacency)
    # ------------------------------------------------------------------
    def _tables(self, adj_mask: "int | None" = None) -> _Tables:
        """Triangle tables for ``adj_mask`` (default: the current adjacency)."""
        key = self._adj_mask if adj_mask is None else adj_mask
        entry = self._tables_memo.get(key)
        if entry is None:
            if len(self._tables_memo) >= 4096:
                self._tables_memo.clear()
                self._excluded_memo.clear()
            entry = _Tables(key, self.n_chips, self._excluded_memo)
            self._tables_memo[key] = entry
        return entry

    def _rebuild_adj_mask(self) -> None:
        """Recompute ``_adj_mask`` from ``_edge_count`` (test hook support)."""
        mask = 0
        c = self.n_chips
        for a, b in zip(*np.nonzero(self._edge_count)):
            mask |= 1 << (int(a) * c + int(b))
        self._adj_mask = mask

    # ------------------------------------------------------------------
    # The paper's driver interface
    # ------------------------------------------------------------------
    def set_domain(self, node: int, values: "int | Iterable[int]") -> int:
        """Restrict ``node`` to ``values``, propagate, and return decision count.

        On success the restriction is committed as a new decision and
        ``n_decisions`` (== previous + 1) is returned.  On conflict the
        solver back-tracks — undoing the attempt, excluding the offending
        values at the surviving level, and popping decisions as needed —
        and returns the new (smaller) decision count.
        """
        mask_req = self._to_mask(values)
        return self._decide(node, mask_req, self._domain_mask(node))

    def sample_step(self, node: int, weights, rng) -> int:
        """One SAMPLE step: draw a value for ``node`` and commit it.

        Equivalent to ``set_domain(node, v)`` with ``v`` drawn from
        ``get_domain(node)`` by inverse CDF over ``weights`` (indexable by
        chip, e.g. one row of the policy distribution as a list), and it
        consumes ``rng`` identically: no draw when the looked-ahead domain
        is a single chip.  Returns the new decision count.
        """
        if self._fixed_set >> node & 1:
            cur = 1 << self._values[node]
            return self._decide(node, cur, cur)
        cur = self._domain_mask(node)
        mask = cur
        if cur & (cur - 1):
            if not self._general:
                pruned = self._triangle_prune(node, cur)
                if pruned:
                    mask = pruned
            if mask & (mask - 1):
                mask = 1 << _draw(mask, weights, rng)
        return self._decide(node, mask, cur)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _to_mask(self, values: "int | Iterable[int]") -> int:
        if isinstance(values, (int, np.integer)):
            v = int(values)
            if not (0 <= v < self.n_chips):
                raise ValueError(f"chip id {v} out of range [0, {self.n_chips})")
            return 1 << v
        mask = 0
        for v in values:
            if not (0 <= v < self.n_chips):
                raise ValueError(f"chip id {v} out of range [0, {self.n_chips})")
            mask |= 1 << int(v)
        if mask == 0:
            raise ValueError("values must be non-empty")
        return mask

    def _decide(self, node: int, mask_req: int, cur: int) -> int:
        """Commit ``mask_req`` on ``node`` (current domain ``cur``) as a
        decision, back-tracking on conflict; returns the decision count.

        A no-op restriction (e.g. committing a value propagation already
        fixed, most SAMPLE steps) changes no state, so its snapshot is the
        next one taken: every state change starts with :meth:`_snapshot`,
        which settles the debt before any decision can be popped.
        """
        if cur & mask_req == cur:
            self._decisions.append((node, mask_req, None))
            self._unsnapped += 1
            return len(self._decisions)
        snap = self._snapshot()
        try:
            self._apply(node, mask_req, cur)
        except _Conflict:
            self._restore(snap)
            return self._resolve_conflict(node, mask_req)
        self._decisions.append((node, mask_req, snap))
        return len(self._decisions)

    def _apply(self, node: int, mask_req: int, cur: int) -> None:
        """Restrict one node's chip mask (currently ``cur``) and propagate
        to fixpoint."""
        new = cur & mask_req
        if new == 0:
            raise _Conflict
        if new == cur:
            # No-op restriction (e.g. committing a value propagation already
            # fixed): the state is at fixpoint and passed every check when
            # it was produced, so there is nothing to propagate or re-check.
            return
        bit = 1 << node
        avail = self._avail
        removed = cur ^ new
        while removed:
            d_bit = removed & -removed
            avail[d_bit.bit_length() - 1] &= ~bit
            removed ^= d_bit
        if self._general:
            self._propagate_general()
        else:
            self._propagate()

    def _propagate(self) -> None:
        """Word-parallel propagation to fixpoint, then the global checks.

        Each round applies (1) the transitive lower-bound closure — nodes
        whose lower bound exceeds ``d`` drag all their descendants off
        chips ``<= d`` via the precomputed descendant bitmasks, (2) the
        symmetric upper-bound closure over ancestors, and (3) triangle
        restrictions and chip-edge bookkeeping for newly fixed nodes
        (:meth:`_settle_fixed`).  Rounds repeat until nothing changes;
        conflicts (an emptied domain, an uncoverable chip, a violated
        triangle) raise :class:`_Conflict` and the caller rewinds via
        snapshot.
        """
        avail = self._avail
        full = self._full
        c = self.n_chips
        desc = self._desc
        anc = self._anc
        done_lo = self._done_lo
        done_hi = self._done_hi
        # The state entering the wave already satisfies the triangle masks
        # of the current adjacency; re-application is only needed when the
        # adjacency changes mid-wave, and one pass per wave bounds its cost
        # on edge-churny instances.
        entry_adj = applied_adj = self._adj_mask
        reapplied = False
        while True:
            changed = False

            # Lower bounds flow to descendants (Eq. 2, src side).
            acc = 0
            for d in range(c - 1):
                acc |= avail[d]
                new = full & ~acc & ~done_lo[d]  # newly known lo > d
                if new:
                    rem = 0
                    m = new
                    while m:
                        b = m & -m
                        rem |= desc[b.bit_length() - 1]
                        m ^= b
                    done_lo[d] |= new | rem
                    if rem:
                        for d2 in range(d + 1):
                            old = avail[d2]
                            if old & rem:
                                avail[d2] = old & ~rem
                                changed = True

            # Upper bounds flow to ancestors (Eq. 2, dst side).
            acc = 0
            for d in range(c - 1, 0, -1):
                acc |= avail[d]
                new = full & ~acc & ~done_hi[d]  # newly known hi < d
                if new:
                    rem = 0
                    m = new
                    while m:
                        b = m & -m
                        rem |= anc[b.bit_length() - 1]
                        m ^= b
                    done_hi[d] |= new | rem
                    if rem:
                        for d2 in range(d, c):
                            old = avail[d2]
                            if old & rem:
                                avail[d2] = old & ~rem
                                changed = True

            # An emptied domain conflicts; check before the (costlier)
            # fixed-node processing so doomed waves abort early.
            ge1 = 0
            ge2 = 0
            for d in range(c):
                a = avail[d]
                ge2 |= ge1 & a
                ge1 |= a
            if ge1 != full:
                raise _Conflict

            new_fixed = ge1 & ~ge2 & ~self._fixed_set
            if new_fixed and self._settle_fixed(new_fixed):
                changed = True

            if not changed:
                # At fixpoint, re-apply the one-hop triangle masks of *all*
                # fixed nodes if new chip edges tightened the tables during
                # this wave: the per-chip neighbour frontiers do it in
                # O(chips^2) mask ops, catching wedges the moment the edge
                # appears instead of hundreds of driver steps later.  Doing
                # this once per fixpoint (not per adjacency change) keeps
                # the strengthening essentially free on easy instances.
                if (
                    self.triangle_frontier
                    and not reapplied
                    and self._adj_mask != applied_adj
                ):
                    reapplied = True
                    applied_adj = self._adj_mask
                    changed = self._mask_neighbours(
                        self._tables(),
                        enumerate(self._succ_frontier),
                        enumerate(self._pred_frontier),
                    )
                if not changed:
                    break

        # No-skipping: every chip below the largest forced lower bound must
        # still be coverable by some node.
        acc = 0
        max_lo = 0
        for d in range(c - 1):
            acc |= avail[d]
            if full & ~acc:
                max_lo = d + 1
        self._max_lo = max_lo
        for d in range(max_lo):
            if avail[d] == 0:
                raise _Conflict

        # Triangle dependency among currently fixed cross-chip edges.
        if self._adj_mask != entry_adj and self._tables().violated:
            raise _Conflict

    def _settle_fixed(self, new_fixed: int) -> bool:
        """Chip edges and one-hop triangle masks of newly fixed nodes.

        Nodes settle in ascending bit order.  The second endpoint of a
        graph edge to become fixed records the chip edge, preserving
        multiset semantics.  Each node's successors (predecessors) must
        then leave the chips its value forbids under the tables of the
        adjacency *after* its own edges.  Those removals feed nothing else
        in this pass, so the neighbour sets are ORed into one union per
        chip value and masked out once per run of nodes that saw the same
        adjacency; a node whose edges change the adjacency first flushes
        the pending unions under the old tables.  Returns whether any
        domain shrank.
        """
        avail = self._avail
        values = self._values
        c = self.n_chips
        for d in range(c):
            hit = new_fixed & avail[d]
            while hit:
                b = hit & -hit
                values[b.bit_length() - 1] = d
                hit ^= b
        succs = self._succs
        preds = self._preds
        succ_bits = self._succ_bits
        pred_bits = self._pred_bits
        counts = self._edge_flat
        fixed = self._fixed_set
        adj = seg_adj = self._adj_mask
        succ_union = [0] * c
        pred_union = [0] * c
        pending = False
        changed = False
        while new_fixed:
            b = new_fixed & -new_fixed
            new_fixed ^= b
            u = b.bit_length() - 1
            fixed |= b
            value = values[u]
            sb = succ_bits[u]
            pb = pred_bits[u]
            # Fixed neighbours off ``value``'s chip: a fixed node still in
            # ``avail[value]`` sits on ``value`` (domains only shrink), so
            # an empty set means no cross-chip edge to record.
            off_chip = fixed & ~avail[value]
            if sb & off_chip:
                for w in succs[u]:
                    if fixed >> w & 1:
                        other = values[w]
                        if other != value:
                            if other < value:
                                # Bounds propagation makes this unreachable.
                                raise _Conflict
                            k = value * c + other
                            n = counts[k]
                            counts[k] = n + 1
                            if not n:
                                adj |= 1 << k
            if pb & off_chip:
                for w in preds[u]:
                    if fixed >> w & 1:
                        other = values[w]
                        if other != value:
                            if value < other:
                                raise _Conflict
                            k = other * c + value
                            n = counts[k]
                            counts[k] = n + 1
                            if not n:
                                adj |= 1 << k
            if adj != seg_adj:
                if pending and self._flush_unions(seg_adj, succ_union, pred_union):
                    changed = True
                succ_union = [0] * c
                pred_union = [0] * c
                pending = False
                seg_adj = adj
            if sb or pb:
                succ_union[value] |= sb
                pred_union[value] |= pb
                pending = True
        self._fixed_set = fixed
        self._adj_mask = adj
        if pending and self._flush_unions(adj, succ_union, pred_union):
            changed = True
        return changed

    def _flush_unions(self, adj_mask: int, succ_union: list, pred_union: list) -> bool:
        """Fold one segment's per-value neighbour unions into the frontiers
        and mask them out under the tables of ``adj_mask``."""
        for frontier, union in (
            (self._succ_frontier, succ_union),
            (self._pred_frontier, pred_union),
        ):
            for value, nodes in enumerate(union):
                if nodes:
                    frontier[value] |= nodes
        return self._mask_neighbours(
            self._tables(adj_mask), enumerate(succ_union), enumerate(pred_union)
        )

    def _mask_neighbours(self, entry: _Tables, succ_sets, pred_sets) -> bool:
        """Apply one-hop triangle masks under the tables ``entry``.

        ``succ_sets`` / ``pred_sets`` yield ``(value, nodes)`` pairs: the
        successors (predecessors) of nodes fixed at chip ``value``, which
        leave every chip ``entry`` forbids for them.  Returns whether any
        domain shrank.
        """
        avail = self._avail
        changed = False
        for sets, excluded in (
            (succ_sets, entry.succ_excl),
            (pred_sets, entry.pred_excl),
        ):
            for value, nodes in sets:
                if not nodes:
                    continue
                for d in excluded[value]:
                    old = avail[d]
                    if old & nodes:
                        avail[d] = old & ~nodes
                        changed = True
        return changed

    def _propagate_general(self) -> None:
        """Reachability propagation for non-total-order topologies.

        The ordered engine's bounds propagation is the special case of this
        wave for ``reach_to(d) = {0..d}`` / ``reach_from(d) = {d..C-1}``:
        a node whose domain contains no chip that can reach ``d`` drags all
        its (transitive) descendants off chip ``d``, and symmetrically a
        node whose domain contains no chip reachable *from* ``d`` drags its
        ancestors off ``d``.  Soundness follows from the transitivity of
        reachability (any valid completion routes every ancestor/descendant
        pair).  The per-chip ``done`` sets memoise processed nodes exactly
        as in the ordered engine — blocked status is monotone as domains
        shrink, so snapshots restore them consistently.

        The triangle constraint (Eq. 4) is not enforced here: it is a
        compiler restriction of the paper's uni-directional ring, meaningless
        once the chip-dependency graph may legally contain cycles.  The
        no-skipping rule (Eq. 3) is a chip-*allocation* rule, independent of
        the interconnect, and is checked the same way as in the ordered
        engine.
        """
        avail = self._avail
        full = self._full
        c = self.n_chips
        desc = self._desc
        anc = self._anc
        done_lo = self._done_lo
        done_hi = self._done_hi
        reach_to = self._reach_to_list
        reach_from = self._reach_from_list
        while True:
            changed = False
            for d in range(c):
                # Nodes that cannot sit on any chip reaching ``d`` exclude
                # their descendants from ``d`` (generalised lower bound).
                acc = 0
                for x in reach_to[d]:
                    acc |= avail[x]
                blocked = full & ~acc & ~done_lo[d]
                if blocked:
                    rem = 0
                    m = blocked
                    while m:
                        b = m & -m
                        rem |= desc[b.bit_length() - 1]
                        m ^= b
                    done_lo[d] |= blocked | rem
                    if avail[d] & rem:
                        avail[d] &= ~rem
                        changed = True
                # Nodes that cannot sit on any chip reachable from ``d``
                # exclude their ancestors from ``d`` (generalised upper
                # bound).
                acc = 0
                for x in reach_from[d]:
                    acc |= avail[x]
                blocked = full & ~acc & ~done_hi[d]
                if blocked:
                    rem = 0
                    m = blocked
                    while m:
                        b = m & -m
                        rem |= anc[b.bit_length() - 1]
                        m ^= b
                    done_hi[d] |= blocked | rem
                    if avail[d] & rem:
                        avail[d] &= ~rem
                        changed = True

            ge1 = 0
            ge2 = 0
            for d in range(c):
                a = avail[d]
                ge2 |= ge1 & a
                ge1 |= a
            if ge1 != full:
                raise _Conflict
            if not changed:
                break

        # Fixed-node bookkeeping (``assignment()`` / ``is_fixed`` views);
        # no chip-edge or triangle tracking in this mode.
        new_fixed = ge1 & ~ge2 & ~self._fixed_set
        if new_fixed:
            values = self._values
            for d in range(c):
                hit = new_fixed & avail[d]
                while hit:
                    b = hit & -hit
                    values[b.bit_length() - 1] = d
                    hit ^= b
            self._fixed_set |= new_fixed

        # No-skipping (Eq. 3): every chip below the largest forced lower
        # bound must still be coverable by some node.
        acc = 0
        max_lo = 0
        for d in range(c - 1):
            acc |= avail[d]
            if full & ~acc:
                max_lo = d + 1
        self._max_lo = max_lo
        for d in range(max_lo):
            if avail[d] == 0:
                raise _Conflict

    def _resolve_conflict(self, node: int, tried_mask: int) -> int:
        """Back-track: exclude ``tried_mask`` from ``node`` and pop as needed."""
        while True:
            cur = self._domain_mask(node)
            excl = cur & ~tried_mask
            if excl:
                snap = self._snapshot()
                try:
                    self._apply(node, excl, cur)
                except _Conflict:
                    self._restore(snap)
                else:
                    # The exclusion is folded into the surviving level's
                    # state; popping that level's snapshot rewinds past it.
                    return len(self._decisions)
            if not self._decisions:
                raise Unsatisfiable(
                    "no valid partition under the accumulated exclusions"
                )
            node, tried_mask, snap = self._decisions.pop()
            self._restore(snap)
