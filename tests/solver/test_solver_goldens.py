"""Golden regression: the solver's sampled partitions are frozen bit for bit.

Each test hashes the full assignments of a stream of solver draws (one
generator shared by every draw of the stream, so restarts, back-tracking
and the RNG draw order all feed the digest).  The digests were recorded on
the engine before its propagation hot loop was rewritten; any change to
the domains the solver reaches, to the order it consumes random numbers,
or to the partitions it returns shows up here as a hard failure.

The transformer stream uses the seed-0 policy's probabilities (rounded to
six decimals so a different BLAS thread count cannot move a sampling
boundary).  At 8 chips that regime back-tracks hundreds of times per draw
and restarts with guided priors.  To regenerate after a deliberate change
of the draw contract, run ``PYTHONPATH=src python -m
tests.solver.test_solver_goldens`` from the repository root on the commit
before the change and paste the printed digests.
"""

import hashlib

import numpy as np

from repro.core.partitioner import RLPartitioner, RLPartitionerConfig
from repro.graphs.zoo import build_dataset
from repro.graphs.zoo.transformer import build_transformer
from repro.rl.features import featurize
from repro.solver.engine import ConstraintSolver
from repro.solver.strategies import fix_partition, sample_partition

GOLDEN_TRANSFORMER_8 = [
    "2fcf7bbda1cb35bc3586745d6d5f6621cb10aa00ec856d18e28330a85c4b25db",
    "67444985795bfc1bc8f062157a5fcd31b311102a757f53ced04b2395f69ad934",
    "62236ac8a92cc60886647d1b01b2da9e74456279807143966b6feb72f8bac6d5",
    "5cdd8d127c386dcc79401b72ed4f2f265ae06a486c61365ee3084fefd3e39f82",
    "689697ba2e739aea4073a4a199618bb4f87cd9b5ff57897a99775ad46da743ec",
    "79e293996d72982922aff389022fa8607403d4fb1f0199068cf4bdb630e6d82d",
    "3d7f8458cbdf279f0521ecfed082247315aaa546d3e8d0bdede27dba93a1d784",
    "5cdd8d127c386dcc79401b72ed4f2f265ae06a486c61365ee3084fefd3e39f82",
]
GOLDEN_TEST_GRAPH_4 = [
    "87d68cdc683300a329944f74837803fec2d741ef4284914b2199bdbe6252db08",
    "ced5a4ca413d6b2b4caa33caec7fd31da449e7ffa28657fd4ce9a1bafd343c22",
    "c8dacb92a72699d5bd7c58f9292da3e734373e4f1b1854d96f6c0b3d8c0faba5",
    "82bf360cc47bd3a19a2e0a9ab826dc30361ac5a4262aa22101c074bc5fea5706",
    "f1d101b0a98d2ea620605995ee510a9648a1af43ba7cf8946968132045fc5472",
    "e0731b18ffe3d031326d3210db342cada3ff3603190474e053887c6e58517651",
    "0d8e3dfce53ce0eb44753367aa2e2408bfcf449923a661843670c0fe65f1f5b5",
    "7342384686646d1351dcf3fdf023dd36913b18a96379ca1d00b66438da734e30",
]
GOLDEN_FIX_STREAM = [
    "5b2a5a121ce1bb9a76b13a82730bed660d5deedbc765e80f1017269311f985cf",
    "b663c23c84f4fd824b5930cbe7d662cc87756d5b132de6ed561bd3e275364411",
    "4fd98d46313e06acf1009713b46e2aa87760de2a627f22c244945abf4dc71e22",
    "e99f4a5f9098a0e9c0e13054fa03579e824781ee9d974ea5e8cd5ea8d17e105c",
    "d7668ce0532a6efc0bca1c7570273e1f63d072f93bf445053ad3e6e2bab3c669",
    "989579024e58e29b0bdc12cec43d59ec4b76eab385c330dec2ab04dba498f8be",
]


def _digest(assignment: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(assignment, dtype=np.int64).tobytes()).hexdigest()


def _transformer():
    return build_transformer(layers=3, hidden=256, heads=8, seq=128, vocab=7680)


def _policy_probs(graph, n_chips: int) -> np.ndarray:
    """The seed-0 policy's (N, C) distribution, rounded and renormalised."""
    partitioner = RLPartitioner(
        n_chips, config=RLPartitionerConfig(hidden=64, n_sage_layers=4), rng=0
    )
    probs = partitioner.policy.propose_batch(featurize(graph), 1, rng=0).probs[0]
    probs = np.round(np.asarray(probs, dtype=np.float64), 6)
    return probs / probs.sum(axis=1, keepdims=True)


def transformer_stream() -> "list[str]":
    """8 SAMPLE draws on the search-at-scale transformer at 8 chips."""
    graph = _transformer()
    probs = _policy_probs(graph, 8)
    rng = np.random.default_rng(0)
    return [_digest(sample_partition(graph, probs, 8, rng=rng)) for _ in range(8)]


def dataset_graph_stream() -> "list[str]":
    """8 SAMPLE draws on a back-tracking-heavy 4-chip test graph, where the
    triangle frontier is on."""
    graph = build_dataset(seed=0).test[15]
    rng = np.random.default_rng(1)
    probs = rng.random((graph.n_nodes, 4)) + 0.05
    probs /= probs.sum(axis=1, keepdims=True)
    out = []
    for _ in range(8):
        solver = ConstraintSolver(graph, 4)
        assert solver.triangle_frontier
        out.append(_digest(sample_partition(graph, probs, 4, rng=rng, solver=solver)))
    return out


def fix_stream() -> "list[str]":
    """6 FIX repairs of random candidates on the transformer at 8 chips."""
    graph = _transformer()
    rng = np.random.default_rng(2)
    out = []
    for _ in range(6):
        candidate = rng.integers(0, 8, graph.n_nodes)
        out.append(_digest(fix_partition(graph, candidate, 8, rng=rng)))
    return out


class TestSolverGoldens:
    def test_transformer_sample_stream_at_8_chips(self):
        assert transformer_stream() == GOLDEN_TRANSFORMER_8

    def test_test_graph_sample_stream_at_4_chips(self):
        assert dataset_graph_stream() == GOLDEN_TEST_GRAPH_4

    def test_fix_stream_at_8_chips(self):
        assert fix_stream() == GOLDEN_FIX_STREAM


if __name__ == "__main__":
    for name, fn in (
        ("GOLDEN_TRANSFORMER_8", transformer_stream),
        ("GOLDEN_TEST_GRAPH_4", dataset_graph_stream),
        ("GOLDEN_FIX_STREAM", fix_stream),
    ):
        print(f"{name} = [")
        for digest in fn():
            print(f'    "{digest}",')
        print("]")
