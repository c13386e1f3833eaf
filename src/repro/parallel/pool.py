"""Rollout worker pool: supervised forked processes plus an in-process fallback.

Ownership model (mirrors the paper's independent training/validation
workers): the pool is forked *after* the orchestrator has built the
partitioner, environments, and featurisations, so every worker inherits a
copy-on-write snapshot of all of them.  From then on the only state that
crosses the process boundary is

* policy weight snapshots (parent -> workers, one per PPO update),
* task descriptions (window/shard metadata plus a spawn-key seed), and
* result rows (trajectories, value baselines, improvements).

Solver caches, encoder caches, and environment counters stay worker-private
— they influence speed, never results, which is what makes the pool
deterministic (see ``task_rng``).

Supervision (the reliability layer): the pool detects **dead** workers
(pipe EOF / process exit) and **stuck** workers (no reply within
``task_deadline`` while holding tasks), respawns the process, and reassigns
every task the worker held.  Because each task's RNG is a pure function of
its spawn key — never of the worker that runs it — a reassigned task
produces the bit-identical result, so worker loss is invisible in the
trajectory (pinned by the chaos suite).  Weights correctness across a
respawn is kept by *epoch replay*: each in-flight task records which
broadcast epoch it was dispatched under, and the replacement worker
receives ``[weights of epoch e] -> [e's lost tasks] -> [weights e+1] ->
...`` in the original pipe order.

Deterministic faults (:class:`repro.reliability.FaultPlan`) are injected at
submit time, parent-side: a task's crash/delay directive is consumed when
the task is *first* dispatched, so the recovered schedule runs clean.

:class:`InlineExecutor` executes the identical task schedule synchronously
in the orchestrating process: it is the serial fallback for ``--workers 1``
style runs of the *parallel* code path, and the reference implementation the
determinism tests compare the pool against.  (It has no processes, so pool
faults and supervision do not apply to it.)

Thread budget: a pool holds a :class:`repro.utils.threads.BlasBudget` of
``cpu_budget(n_workers + 1)`` from before its first fork until
:meth:`WorkerPool.close`, so the parent's PPO updates and every forked or
respawned worker share the cores instead of each starting one BLAS thread
per core.  The inline executor keeps the process's count; the determinism
suites, which compare the two, also run under ``OPENBLAS_NUM_THREADS=1``
in ``scripts/ci_check.sh``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

import numpy as np

from repro.obs.metrics import Counter, Histogram
from repro.utils.threads import BlasBudget, cpu_budget

_DEFAULT_TIMEOUT = 600.0

#: Exit code an injected ``crash`` fault dies with (distinguishable from a
#: real segfault in the supervisor's log line).
_CRASH_EXIT_CODE = 13


def fork_available() -> bool:
    """Whether fork-based worker processes are supported on this platform."""
    return "fork" in mp.get_all_start_methods()


def task_rng(seed_key) -> np.random.Generator:
    """Deterministic generator for one task, spawn-keyed from the root seed.

    ``seed_key`` is a tuple of non-negative ints, conventionally
    ``(root, kind_tag, ...indices)``.  The stream is a pure function of the
    key — independent of which worker runs the task, of the worker count,
    and of scheduling timing — which is what makes pool results reproducible
    and worker-count invariant (and what makes supervised *reassignment*
    result-invariant: the replacement worker replays the same stream).
    """
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in seed_key]))


@dataclass(frozen=True)
class ShardTask:
    """One shard of a rollout window, drawn against the current weights.

    ``seed`` is the spawn-key tuple fed to :func:`task_rng`; ``task_id`` is
    ``(window_idx, shard_idx)`` and orders the deterministic merge.
    """

    task_id: tuple
    graph_idx: int
    size: int
    train: bool
    use_solver: bool
    seed: tuple


@dataclass
class ShardResult:
    """Worker reply for one :class:`ShardTask` (rows in draw order)."""

    task_id: tuple
    rollouts: list
    improvements: np.ndarray
    best_assignment: "np.ndarray | None"
    best_improvement: float


@dataclass(frozen=True)
class ReplayTask:
    """A frozen-policy replay (checkpoint validation / zero-shot scoring).

    ``state`` is an optional weights snapshot to load first (``None`` keeps
    whatever the worker currently has loaded); ``restore`` reloads the last
    *broadcast* (training) weights afterwards, so validation replays can
    interleave with training shards without perturbing them.
    """

    task_id: tuple
    graph_idx: int
    n_samples: int
    seed: tuple
    state: "dict | None" = None
    restore: bool = False


@dataclass
class ReplayResult:
    """Worker reply for one :class:`ReplayTask`.

    ``best_assignment`` is the best valid partition of the replay window
    (``None`` when every sample was invalid) — the serving path's payload;
    checkpoint-validation callers only read the improvement statistics.
    """

    task_id: tuple
    improvements: np.ndarray
    best_improvement: float
    best_assignment: "np.ndarray | None" = None


class WorkerHarness:
    """Executes pool tasks against worker-owned state.

    The same harness runs inside forked workers and inside
    :class:`InlineExecutor`; ``copy_weights=True`` marks the inline case,
    where the policy object is shared with the orchestrator — broadcast
    weights are then already live and only a private copy is kept so
    ``ReplayTask.restore`` can undo checkpoint loads.
    """

    def __init__(self, partitioner, envs, feats, copy_weights: bool = False):
        self.partitioner = partitioner
        self.envs = list(envs)
        self.feats = list(feats)
        self._copy_weights = copy_weights
        self._train_state: "dict | None" = None

    def load_weights(self, state: dict) -> None:
        """Install a broadcast weights snapshot as the training weights."""
        if self._copy_weights:
            self._train_state = {k: v.copy() for k, v in state.items()}
        else:
            self.partitioner.load_state_dict(state)
            self._train_state = state

    def run_shard(self, task: ShardTask) -> ShardResult:
        """Draw one window shard with the task's private RNG stream."""
        draw = self.partitioner.draw_window(
            self.envs[task.graph_idx],
            task.size,
            rng=task_rng(task.seed),
            train=task.train,
            use_solver=task.use_solver,
            features=self.feats[task.graph_idx],
        )
        return ShardResult(
            task_id=task.task_id,
            rollouts=draw.rollouts,
            improvements=draw.improvements,
            best_assignment=draw.best_assignment,
            best_improvement=draw.best_improvement,
        )

    def run_replay(self, task: ReplayTask) -> ReplayResult:
        """Run a frozen-policy replay, optionally restoring train weights."""
        if task.state is not None:
            self.partitioner.load_state_dict(task.state)
        draw = self.partitioner.draw_window(
            self.envs[task.graph_idx],
            task.n_samples,
            rng=task_rng(task.seed),
            train=False,
            use_solver=True,
            features=self.feats[task.graph_idx],
        )
        if task.restore:
            if self._train_state is None:
                raise RuntimeError(
                    "ReplayTask.restore requires a prior weights broadcast"
                )
            self.partitioner.load_state_dict(self._train_state)
        return ReplayResult(
            task_id=task.task_id,
            improvements=draw.improvements,
            best_improvement=draw.best_improvement,
            best_assignment=draw.best_assignment,
        )


def _apply_directive(directive) -> None:
    """Honour an injected fault directive inside the worker process.

    ``("crash",)`` dies *before* executing — no result, no partial pipe
    write, exactly what a kill -9 mid-task looks like from the parent.
    ``("delay", s)`` sleeps first — a stuck/slow worker for the deadline
    supervisor to reap.
    """
    if directive is None:
        return
    if directive[0] == "crash":
        os._exit(_CRASH_EXIT_CODE)
    elif directive[0] == "delay":
        time.sleep(float(directive[1]))


def _worker_main(conn, partitioner, envs, feats) -> None:
    """Forked worker loop: recv command, execute, reply."""
    harness = WorkerHarness(partitioner, envs, feats)
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "stop":
                break
            try:
                if kind == "weights":
                    harness.load_weights(msg[1])
                elif kind == "shard":
                    _apply_directive(msg[2])
                    conn.send(("shard", harness.run_shard(msg[1])))
                elif kind == "replay":
                    _apply_directive(msg[2])
                    conn.send(("replay", harness.run_replay(msg[1])))
                else:
                    conn.send(("error", f"unknown message kind {kind!r}"))
            except Exception:  # noqa: BLE001 - forwarded to the parent
                conn.send(("error", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class WorkerPool:
    """``n_workers`` supervised forked rollout workers behind duplex pipes.

    Parameters
    ----------
    partitioner / envs / feats:
        Worker state, inherited by fork (copy-on-write) at construction
        time; build all of it *before* creating the pool.  (Kept by the
        pool so a respawned replacement worker forks from the same
        objects; PPO mutations in the parent between fork and respawn are
        hidden by the epoch-replayed weights broadcast.)
    n_workers:
        Process count (>= 1).
    timeout:
        Seconds :meth:`recv_any` waits before declaring the pool deadlocked.
    task_deadline:
        Seconds a worker may hold tasks without replying before it is
        declared stuck, killed, and respawned (``None`` disables the
        deadline supervisor; death detection is always on).
    max_respawns:
        Total worker respawns the pool will perform before giving up with
        ``RuntimeError`` (a crash-looping fleet must fail, not spin).
    fault_plan:
        Optional :class:`repro.reliability.FaultPlan`; pool faults are
        consumed parent-side at first dispatch (see module docstring).
    """

    def __init__(
        self,
        partitioner,
        envs,
        feats,
        n_workers: int,
        timeout: float = _DEFAULT_TIMEOUT,
        task_deadline: "float | None" = None,
        max_respawns: int = 3,
        fault_plan=None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not fork_available():
            raise RuntimeError(
                "fork start method unavailable; use InlineExecutor instead"
            )
        self._ctx = mp.get_context("fork")
        self.n_workers = n_workers
        self.timeout = timeout
        self.task_deadline = task_deadline
        self.max_respawns = int(max_respawns)
        self.fault_plan = fault_plan
        self._respawns = Counter("pool_respawns_total")
        self._ipc_wait_s = Histogram("pool_ipc_wait_s")
        self._partitioner = partitioner
        self._envs = list(envs)
        self._feats = list(feats)
        self._closed = False
        self._conns: list = [None] * n_workers
        self._procs: list = [None] * n_workers
        #: Per-worker in-flight ledger: ``(kind, task_id) -> (kind, task,
        #: weights epoch)`` in dispatch order — exactly what a replacement
        #: worker must replay.
        self._inflight: "list[OrderedDict]" = [
            OrderedDict() for _ in range(n_workers)
        ]
        self._last_activity = [time.monotonic()] * n_workers
        #: Weights-broadcast epochs: 0 = fork-inherited weights, then one
        #: per ``broadcast_weights``.  Snapshots are retained while any
        #: in-flight task still references their epoch (see ``_prune``).
        self._epoch = 0
        self._weights: "dict[int, dict]" = {}
        # All outbound traffic goes through one FIFO drained by a sender
        # thread, so the orchestrating thread never blocks in ``send``.
        # Without this, a weights broadcast larger than the pipe buffer can
        # deadlock against a worker that is itself blocked sending a large
        # shard result (neither side recv-ing); with it, the orchestrator
        # keeps draining results no matter how slow the pipes are, and the
        # recv-side timeout stays an effective deadlock guard.  A single
        # queue preserves per-pipe message order (the correctness
        # invariant: shards of window c precede the next weights version).
        # ``_send_lock`` additionally excludes the sender from being
        # mid-``send`` while a respawn forks: the child must never inherit
        # a half-written pipe.
        self._send_lock = threading.Lock()
        self._sendq: "queue.SimpleQueue" = queue.SimpleQueue()
        # Pinned before the first fork: workers inherit the parent's count.
        self._blas = BlasBudget(cpu_budget(n_workers + 1)).acquire()
        try:
            for w in range(n_workers):
                self._spawn(w)
        except BaseException:
            self._blas.release()
            raise
        self._sender = threading.Thread(
            target=self._send_loop, daemon=True, name="repro-pool-sender"
        )
        self._sender.start()

    def _spawn(self, w: int) -> None:
        """Fork (or re-fork) worker slot ``w``."""
        parent_conn, child_conn = self._ctx.Pipe()
        with self._send_lock:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._partitioner, self._envs, self._feats),
                daemon=True,
                name=f"repro-rollout-{w}",
            )
            proc.start()
        child_conn.close()
        self._conns[w] = parent_conn
        self._procs[w] = proc
        self._last_activity[w] = time.monotonic()

    def _send_loop(self) -> None:
        while True:
            item = self._sendq.get()
            if item is None:
                return
            conn, msg = item
            try:
                with self._send_lock:
                    conn.send(msg)
            except (BrokenPipeError, OSError):
                # The dead worker surfaces as EOF in recv_any (and its
                # in-flight ledger is replayed to the replacement); keep
                # draining so close() can finish.
                pass

    # ------------------------------------------------------------------
    def broadcast_weights(self, state: dict) -> None:
        """Send a weights snapshot to every worker (ordered per pipe)."""
        self._epoch += 1
        self._weights[self._epoch] = state
        for conn in self._conns:
            self._sendq.put((conn, ("weights", state)))
        self._prune_weights()

    def _prune_weights(self) -> None:
        """Drop snapshots no in-flight task can need for a respawn replay."""
        floor = self._epoch
        for ledger in self._inflight:
            for _kind, _task, epoch in ledger.values():
                floor = min(floor, epoch)
        for epoch in [e for e in self._weights if e < floor]:
            del self._weights[epoch]

    @property
    def respawns(self) -> int:
        return self._respawns.value

    @property
    def ipc_wait_s(self) -> float:
        """Total wall seconds the orchestrator has blocked on worker IPC."""
        return self._ipc_wait_s.sum

    def stats(self) -> dict:
        """Typed-counter view of the pool (mirrors the serve stats dicts)."""
        return {
            "n_workers": self.n_workers,
            "respawns": self._respawns.value,
            "ipc_wait_s": self._ipc_wait_s.sum,
            "ipc_waits": self._ipc_wait_s.count,
        }

    def submit(self, worker: int, kind: str, task) -> None:
        """Queue a ``"shard"`` or ``"replay"`` task on one worker."""
        directive = None
        if self.fault_plan is not None:
            directive = self.fault_plan.pool_directive(task.task_id)
        if not self._inflight[worker]:
            # The deadline clock runs from "worker went busy", refreshed by
            # every reply — a per-task deadline as the parent can see it.
            self._last_activity[worker] = time.monotonic()
        self._inflight[worker][(kind, task.task_id)] = (kind, task, self._epoch)
        self._sendq.put((self._conns[worker], (kind, task, directive)))

    def recv_any(self):
        """Block for the next reply from any worker; ``(kind, result)``.

        Supervision happens here: a dead worker (EOF) or a stuck worker
        (``task_deadline`` exceeded while holding tasks) is respawned and
        its in-flight tasks are reassigned — invisible to the caller beyond
        latency, because reassignment is result-invariant (spawn-keyed
        RNG).  Raises ``TimeoutError`` after ``timeout`` seconds without
        any reply (a deadlocked pool must fail fast, not hang the caller),
        and ``RuntimeError`` if a worker reported a task exception (a
        deterministic bug — retrying it would fail identically) or the
        respawn budget is exhausted.
        """
        deadline = time.monotonic() + self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close(force=True)
                raise TimeoutError(
                    f"no rollout-worker reply within {self.timeout}s; "
                    "pool terminated"
                )
            if self.task_deadline is not None:
                poll = min(remaining, max(self.task_deadline / 4.0, 0.02), 0.25)
            else:
                poll = remaining
            t_wait = time.perf_counter()
            ready = _connection_wait(self._conns, poll)
            self._ipc_wait_s.observe(time.perf_counter() - t_wait)
            if ready:
                conn = ready[0]
                w = self._conns.index(conn)
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    code = self._procs[w].exitcode
                    self._recover_worker(w, f"died (exit code {code})")
                    continue
                if kind == "error":
                    self.close(force=True)
                    raise RuntimeError(f"rollout worker failed:\n{payload}")
                self._inflight[w].pop((kind, payload.task_id), None)
                self._last_activity[w] = time.monotonic()
                return kind, payload
            if self.task_deadline is None:
                continue
            now = time.monotonic()
            for w in range(self.n_workers):
                if (
                    self._inflight[w]
                    and now - self._last_activity[w] > self.task_deadline
                ):
                    self._recover_worker(
                        w,
                        f"stuck (no reply in {self.task_deadline}s)",
                        kill=True,
                    )

    def _recover_worker(self, w: int, reason: str, kill: bool = False) -> None:
        """Respawn worker ``w`` and reassign everything it held.

        The replacement receives the lost tasks in their original dispatch
        order, each preceded by the weights snapshot of the epoch it was
        dispatched under — so every reassigned draw runs against exactly
        the weights the original dispatch promised (bit-identity).
        """
        if self._respawns.value >= self.max_respawns:
            self.close(force=True)
            raise RuntimeError(
                f"rollout worker {w} {reason}; respawn budget "
                f"({self.max_respawns}) exhausted"
            )
        self._respawns.inc()
        proc, conn = self._procs[w], self._conns[w]
        if kill and proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - terminate() refused
            proc.kill()
            proc.join(timeout=1.0)
        try:
            conn.close()
        except OSError:
            pass
        lost = list(self._inflight[w].values())
        self._inflight[w] = OrderedDict()
        self._spawn(w)
        new_conn = self._conns[w]
        replayed_epoch: "int | None" = None
        for kind, task, epoch in lost:
            if epoch != replayed_epoch and epoch in self._weights:
                self._sendq.put((new_conn, ("weights", self._weights[epoch])))
                replayed_epoch = epoch
            self._inflight[w][(kind, task.task_id)] = (kind, task, epoch)
            self._sendq.put((new_conn, (kind, task, None)))
        if self._epoch and replayed_epoch != self._epoch:
            # Future submits assume every live worker holds the latest
            # broadcast; catch the replacement up past the replayed tasks.
            self._sendq.put((new_conn, ("weights", self._weights[self._epoch])))

    def close(self, force: bool = False) -> None:
        """Stop all workers; idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            self._sendq.put((conn, ("stop",)))
        self._sendq.put(None)
        self._sender.join(timeout=0.2 if force else 5.0)
        for proc in self._procs:
            proc.join(timeout=0.2 if force else 5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._blas.release()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close(force=exc[0] is not None)


class InlineExecutor:
    """Serial in-process executor with the pool's exact interface.

    ``submit`` runs the task immediately against the orchestrator's own
    objects and queues the reply for ``recv_any``.  Because the window
    scheduler submits the next window *before* running the PPO update (the
    stale-by-one pipeline), inline execution sees the same weights for every
    window as the pool does — which is what makes ``n_workers=1`` the
    bit-for-bit reference for any worker count (faulty or not: pool faults
    target processes, which the inline executor does not have).
    """

    n_workers = 1
    respawns = 0
    ipc_wait_s = 0.0

    def __init__(self, partitioner, envs, feats):
        self._harness = WorkerHarness(partitioner, envs, feats, copy_weights=True)
        self._replies: deque = deque()

    def broadcast_weights(self, state: dict) -> None:
        self._harness.load_weights(state)

    def stats(self) -> dict:
        return {
            "n_workers": 1,
            "respawns": 0,
            "ipc_wait_s": 0.0,
            "ipc_waits": 0,
        }

    def submit(self, worker: int, kind: str, task) -> None:
        if kind == "shard":
            self._replies.append(("shard", self._harness.run_shard(task)))
        elif kind == "replay":
            self._replies.append(("replay", self._harness.run_replay(task)))
        else:
            raise ValueError(f"unknown task kind {kind!r}")

    def recv_any(self):
        if not self._replies:
            raise RuntimeError("no outstanding replies (scheduler bug)")
        return self._replies.popleft()

    def close(self, force: bool = False) -> None:
        pass

    def __enter__(self) -> "InlineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        pass
