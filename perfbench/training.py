"""``search_scale``: PPO-training search at scale.

Every search is a ``parallel_search`` of the 193-node transformer at 8
chips, trained from scratch on its own seed.  The seeds are a stream drawn
from the workload seed, and a run takes fresh seeds until its time is up,
with at least ``GEOMEAN_SEARCHES`` searches.  The cost of a search depends
a lot on its seed, so a run averages over as many seeds as fit in its time
rather than repeating a few.  The first ``GEOMEAN_SEARCHES`` searches are
run again after the timed part (or by the traced run) and must come back
bit-identical, which is how the benchmark checks that
``improvement_geomean`` repeats exactly for the same seed.
"""

from __future__ import annotations

import os
import time

import numpy as np

from checks import eq_report, geomean
from measure import N_SETUPS, LayerTimer, cpu_seconds, layer_metrics, peak_rss_mb
from repro.core.environment import PartitionEnvironment
from repro.core.partitioner import RLPartitioner, RLPartitionerConfig
from repro.graphs.zoo.transformer import build_transformer
from repro.hardware.analytical import AnalyticalCostModel
from repro.hardware.package import MCMPackage
from repro.parallel import ParallelConfig, parallel_search
from repro.rl.features import featurize
from repro.rl.ppo import PPOConfig

CHIPS = 8
SAMPLES = 40
WORKERS = 2
#: Searches every run makes; ``improvement_geomean`` is taken over them.
GEOMEAN_SEARCHES = 3

#: Profiler phase -> per-layer metric prefix.
PHASES = {
    "encoder": "rl.policy",
    "solver": "solver",
    "rollout": "hardware.evaluate",
    "ppo_update": "rl.ppo",
}


def _config() -> RLPartitionerConfig:
    # The search-at-scale row of benchmarks/bench_search_throughput.py.
    return RLPartitionerConfig(
        hidden=64,
        n_sage_layers=4,
        ppo=PPOConfig(n_rollouts=20, n_minibatches=4, n_epochs=10),
    )


class ScaleWorkload:
    """Inputs, timed loop, checks and per-layer metrics of ``search_scale``."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 1])
        self.seeds: "list[int]" = []
        self.config = _config()

    def seed_of(self, i: int) -> int:
        """The ``i``-th search seed of the workload's stream."""
        while len(self.seeds) <= i:
            self.seeds.append(int(self.rng.integers(2**31)))
        return self.seeds[i]

    # -- set-up ---------------------------------------------------------
    def setup_once(self) -> None:
        """Build the inputs and pay one-time lazy initialisation."""
        self.graph = build_transformer(
            layers=3, hidden=256, heads=8, seq=128, vocab=7680, name="tf_scale"
        )
        self.env = PartitionEnvironment(
            self.graph, AnalyticalCostModel(MCMPackage(n_chips=CHIPS)), CHIPS
        )
        # A throwaway search warms BLAS, allocators and the graph's caches.
        RLPartitioner(CHIPS, config=self.config, rng=0).search(self.env, 1, train=False)

    def setup(self, n: int) -> "list[float]":
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - t0)
        return times

    # -- one search -----------------------------------------------------
    def _search(self, seed: int, profiler, featurize_s: list):
        partitioner = RLPartitioner(CHIPS, config=self.config, rng=seed)
        partitioner.profiler = profiler
        t0 = time.perf_counter()
        feats = featurize(self.graph)
        featurize_s.append(time.perf_counter() - t0)
        return parallel_search(
            partitioner,
            self.env,
            SAMPLES,
            config=ParallelConfig(n_workers=WORKERS, seed=seed),
            features=feats,
        )

    # -- timed loop -----------------------------------------------------
    def run(self, seconds: float = 0.0, count: int = 0, profiler=None) -> dict:
        """Searches on the seed stream from its start: exactly ``count`` if
        given, else until ``seconds`` elapsed (at least ``GEOMEAN_SEARCHES``)."""
        featurize_s: list = []
        results, times = [], []
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        while (
            len(results) < count
            if count
            else len(results) < GEOMEAN_SEARCHES or time.perf_counter() - start < seconds
        ):
            t0 = time.perf_counter()
            results.append(self._search(self.seed_of(len(results)), profiler, featurize_s))
            times.append(time.perf_counter() - t0)
        return {
            "results": results,
            "rate": SAMPLES * len(results) / float(sum(times)),
            "wall": time.perf_counter() - start,
            "cpu": cpu_seconds() - cpu0,
            "featurize_s": featurize_s,
        }

    # -- checks ---------------------------------------------------------
    def check(self, runs: "list[dict]") -> "tuple[int, int, list]":
        """``(attempted, failed, problems)`` over every search of ``runs``;
        every run must repeat the first one bit for bit."""
        reference = runs[0]["results"]
        attempted = failed = 0
        problems = []
        for run in runs:
            for i, (result, ref) in enumerate(zip(run["results"], reference)):
                attempted += 1
                best = result.best_assignment
                if best is None:
                    failed += 1
                    problems.append(f"search {i}: no valid partition")
                    continue
                if not all(eq_report(self.graph, best, CHIPS)):
                    failed += 1
                    problems.append(f"search {i}: breaks Eq. 2-4")
                if not (
                    np.array_equal(best, ref.best_assignment)
                    and result.best_improvement == ref.best_improvement
                    and np.array_equal(result.improvements, ref.improvements)
                ):
                    problems.append(f"search {i}: repeat differs from the first run")
            if self.geomean(run) != self.geomean(runs[0]):
                problems.append("improvement_geomean did not repeat exactly")
        return attempted, failed, problems

    @staticmethod
    def geomean(run: dict) -> float:
        return geomean(
            [r.best_improvement for r in run["results"][:GEOMEAN_SEARCHES]]
        )

    def per_layer(self, run: dict, profiler: LayerTimer) -> dict:
        """Per-layer metrics of a traced run."""
        parent = profiler.samples
        workers = profiler.worker_samples()
        out = {
            "rl.featurize.calls": (len(run["featurize_s"]), "count"),
            "rl.featurize.busy_s": (float(sum(run["featurize_s"])), "s"),
        }
        for phase, prefix in PHASES.items():
            out.update(layer_metrics(prefix, parent.get(phase, []) + workers.get(phase, [])))
        improvements = np.concatenate([r.improvements for r in run["results"]])
        out["hardware.evaluate.valid_ratio"] = (
            float(np.mean(improvements > 0.0)), "ratio"
        )
        wait = float(sum(parent.get("pool_ipc", [])))
        out["parallel.wait_s"] = (wait, "s")
        attributed = (
            sum(run["featurize_s"])
            + wait
            + sum(sum(parent.get(phase, [])) for phase in PHASES)
        )
        out["unattributed_s"] = (run["wall"] - attributed, "s")
        out["process.cpu_per_wall"] = (run["cpu"] / run["wall"], "ratio")
        return out


def run_scale(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    workload = ScaleWorkload(seed)
    setup_times = workload.setup(1 if trace else N_SETUPS)
    # A traced invocation splits its time between an untraced run and a
    # traced run of the same searches.
    untraced = workload.run(seconds / 2 if trace else seconds)
    metrics = {}
    if trace:
        spill = os.path.join(work_dir, "phases")
        os.makedirs(spill, exist_ok=True)
        profiler = LayerTimer(spill)
        repeat = workload.run(count=len(untraced["results"]), profiler=profiler)
        metrics.update(workload.per_layer(repeat, profiler))
        metrics["obs.trace_overhead_pct"] = (
            (untraced["rate"] - repeat["rate"]) / untraced["rate"] * 100.0, "%"
        )
    else:
        # Untimed: the repeat that checks improvement_geomean.
        repeat = workload.run(count=GEOMEAN_SEARCHES)
        metrics = {
            "ops_per_s": (untraced["rate"], "1/s"),
            "improvement_geomean": (workload.geomean(untraced), "x"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    attempted, failed, problems = workload.check([untraced, repeat])
    return {
        "setup_times": setup_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
