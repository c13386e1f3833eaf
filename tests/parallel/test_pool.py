"""Unit tests for the worker-pool primitives."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.environment import PartitionEnvironment
from repro.core.partitioner import RLPartitioner, RLPartitionerConfig
from repro.hardware.analytical import AnalyticalCostModel
from repro.hardware.package import MCMPackage
from repro.parallel import (
    InlineExecutor,
    ParallelConfig,
    ReplayTask,
    ShardTask,
    WorkerHarness,
    WorkerPool,
    fork_available,
    task_rng,
)
from repro.parallel.search import shard_sizes, window_sizes
from repro.reliability import Fault, FaultPlan
from repro.rl.features import featurize
from repro.rl.ppo import PPOConfig
from repro.utils.threads import blas_threads, cpu_budget
from tests.conftest import random_dag

N_CHIPS = 3


def _tiny_partitioner(rng=0):
    cfg = RLPartitionerConfig(
        hidden=16,
        n_sage_layers=2,
        ppo=PPOConfig(n_rollouts=6, n_minibatches=2, n_epochs=2),
    )
    return RLPartitioner(N_CHIPS, config=cfg, rng=rng)


@pytest.fixture
def env():
    graph = random_dag(3, 16)
    package = MCMPackage(n_chips=N_CHIPS)
    return PartitionEnvironment(graph, AnalyticalCostModel(package), N_CHIPS)


class TestScheduling:
    def test_shard_sizes_near_even(self):
        assert shard_sizes(20, 4) == [5, 5, 5, 5]
        assert shard_sizes(10, 4) == [3, 3, 2, 2]
        assert shard_sizes(3, 4) == [1, 1, 1]  # no empty shards
        assert shard_sizes(1, 4) == [1]

    def test_shard_sizes_rejects_empty(self):
        with pytest.raises(ValueError):
            shard_sizes(0, 4)

    def test_window_sizes(self):
        assert window_sizes(50, 20) == [20, 20, 10]
        assert window_sizes(40, 20) == [20, 20]
        assert window_sizes(7, 20) == [7]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(n_workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(n_shards=0)
        with pytest.raises(ValueError):
            ParallelConfig(timeout=0)


class TestTaskRng:
    def test_same_key_same_stream(self):
        a = task_rng((7, 0, 1, 2)).random(4)
        b = task_rng((7, 0, 1, 2)).random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = task_rng((7, 0, 1, 2)).random(4)
        b = task_rng((7, 0, 1, 3)).random(4)
        assert not np.array_equal(a, b)


class TestInlineExecutor:
    def test_shard_roundtrip(self, env):
        partitioner = _tiny_partitioner()
        feats = featurize(env.graph)
        ex = InlineExecutor(partitioner, [env], [feats])
        ex.broadcast_weights(partitioner.state_dict())
        ex.submit(
            0,
            "shard",
            ShardTask(
                task_id=(0, 0), graph_idx=0, size=4, train=True,
                use_solver=True, seed=(1, 0, 0, 0),
            ),
        )
        kind, result = ex.recv_any()
        assert kind == "shard"
        assert result.task_id == (0, 0)
        assert len(result.rollouts) == 4
        assert result.improvements.shape == (4,)

    def test_recv_without_submit_raises(self, env):
        ex = InlineExecutor(_tiny_partitioner(), [env], [featurize(env.graph)])
        with pytest.raises(RuntimeError):
            ex.recv_any()

    def test_replay_restore_requires_broadcast(self, env):
        partitioner = _tiny_partitioner()
        harness = WorkerHarness(
            partitioner, [env], [featurize(env.graph)], copy_weights=True
        )
        with pytest.raises(RuntimeError, match="broadcast"):
            harness.run_replay(
                ReplayTask(
                    task_id=(0, 0), graph_idx=0, n_samples=2,
                    seed=(1, 1, 0, 0), state=partitioner.state_dict(),
                    restore=True,
                )
            )

    def test_replay_restore_returns_train_weights(self, env):
        partitioner = _tiny_partitioner()
        feats = featurize(env.graph)
        harness = WorkerHarness(partitioner, [env], [feats], copy_weights=True)
        train_state = partitioner.state_dict()
        harness.load_weights(train_state)
        other = _tiny_partitioner(rng=9)
        harness.run_replay(
            ReplayTask(
                task_id=(0, 0), graph_idx=0, n_samples=2,
                seed=(1, 1, 0, 0), state=other.state_dict(), restore=True,
            )
        )
        restored = partitioner.state_dict()
        for key, value in train_state.items():
            np.testing.assert_array_equal(restored[key], value)


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
class TestWorkerPool:
    def test_worker_error_propagates(self, env):
        partitioner = _tiny_partitioner()
        feats = featurize(env.graph)
        with WorkerPool(partitioner, [env], [feats], n_workers=1) as pool:
            pool.submit(
                0,
                "shard",
                ShardTask(
                    task_id=(0, 0), graph_idx=5, size=2, train=False,
                    use_solver=True, seed=(1, 0, 0, 0),
                ),
            )
            with pytest.raises(RuntimeError, match="worker failed"):
                pool.recv_any()

    def test_timeout_fails_fast(self, env):
        partitioner = _tiny_partitioner()
        feats = featurize(env.graph)
        pool = WorkerPool(partitioner, [env], [feats], n_workers=1, timeout=0.4)
        try:
            with pytest.raises(TimeoutError):
                pool.recv_any()  # nothing submitted: must not hang
        finally:
            pool.close(force=True)

    def test_close_idempotent(self, env):
        partitioner = _tiny_partitioner()
        feats = featurize(env.graph)
        pool = WorkerPool(partitioner, [env], [feats], n_workers=2)
        pool.close()
        pool.close()


class _ReportsBlasThreads:
    """Stands in for the partitioner: a shard reports the worker's count."""

    def draw_window(self, env, size, rng, train, use_solver, features):
        return SimpleNamespace(
            rollouts=[blas_threads()],
            improvements=np.zeros(0),
            best_assignment=None,
            best_improvement=0.0,
        )


def _count_task(window=0):
    return ShardTask(
        task_id=(window, 0), graph_idx=0, size=1, train=False,
        use_solver=False, seed=(0, 0, window, 0),
    )


def _worker_count(pool, worker=0, window=0):
    pool.submit(worker, "shard", _count_task(window))
    kind, result = pool.recv_any()
    assert kind == "shard"
    return result.rollouts[0]


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
class TestPoolThreadBudget:
    """The parent is pinned to ``cpu_budget(n_workers + 1)`` before the
    first fork, workers inherit it, and ``close`` restores the count."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_forked_workers_read_the_pinned_count(self, blas_at_4, n_workers):
        pinned = min(blas_at_4, cpu_budget(n_workers + 1))
        with WorkerPool(
            _ReportsBlasThreads(), [None], [None], n_workers=n_workers
        ) as pool:
            assert blas_threads() == pinned
            for w in range(n_workers):
                assert _worker_count(pool, worker=w, window=w) == pinned
        assert blas_threads() == blas_at_4

    @pytest.mark.parametrize("force", [False, True])
    def test_close_restores_the_parent_count(self, blas_at_4, force):
        pool = WorkerPool(_ReportsBlasThreads(), [None], [None], n_workers=2)
        assert blas_threads() == min(blas_at_4, cpu_budget(3))
        pool.close(force=force)
        assert blas_threads() == blas_at_4
        pool.close()
        assert blas_threads() == blas_at_4

    def test_respawned_worker_inherits_and_close_restores(self, blas_at_4):
        pinned = min(blas_at_4, cpu_budget(2))
        plan = FaultPlan([Fault(site="pool", kind="crash", at=(0, 0))])
        with WorkerPool(
            _ReportsBlasThreads(), [None], [None], n_workers=1, fault_plan=plan
        ) as pool:
            assert _worker_count(pool) == pinned
            assert pool.respawns == 1
            assert _worker_count(pool, window=1) == pinned
        assert blas_threads() == blas_at_4

    def test_explicit_env_leaves_the_count(self, blas_at_4, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        with WorkerPool(_ReportsBlasThreads(), [None], [None], n_workers=2) as pool:
            assert blas_threads() == blas_at_4
            assert _worker_count(pool) == blas_at_4

    def test_inline_executor_keeps_the_count(self, blas_at_4):
        with InlineExecutor(_ReportsBlasThreads(), [None], [None]) as ex:
            ex.submit(0, "shard", _count_task())
            assert ex.recv_any()[1].rollouts == [blas_at_4]
