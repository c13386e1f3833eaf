"""Shared fixtures for the serving-layer tests: tiny, fast configurations."""

import pytest

from repro.core.partitioner import RLPartitionerConfig
from repro.rl.ppo import PPOConfig
from repro.serve import (
    PartitionServer,
    PartitionService,
    RouterConfig,
    ServiceConfig,
    ShardEndpoint,
    ShardRouter,
)


def tiny_rl_config(**overrides) -> RLPartitionerConfig:
    """A minimal policy network: serving tests measure plumbing, not quality."""
    kwargs = dict(
        hidden=16,
        n_sage_layers=1,
        n_policy_layers=1,
        refine_iters=1,
        ppo=PPOConfig(n_rollouts=4, n_minibatches=1, n_epochs=1),
    )
    kwargs.update(overrides)
    return RLPartitionerConfig(**kwargs)


def tiny_service(registry=None, **config_overrides) -> PartitionService:
    """A service wired with the tiny network and a small default budget."""
    kwargs = dict(default_samples=6, cache_capacity=32, seed=0)
    kwargs.update(config_overrides)
    return PartitionService(
        ServiceConfig(**kwargs),
        registry=registry,
        partitioner_config=tiny_rl_config(),
    )


class Cluster:
    """N thread-backed shards plus a router over them (in-process tier-1
    stand-in for the subprocess deployment).  ``graph_resolver`` resolves
    graph names on the router and on every shard alike."""

    def __init__(
        self, n_shards=2, config=None, graph_resolver=None, **shard_overrides
    ):
        self.servers = []
        shards = []
        for i in range(n_shards):
            srv = PartitionServer(
                tiny_service(shard_id=f"s{i}", **shard_overrides),
                port=0,
                graph_resolver=graph_resolver,
            ).start()
            self.servers.append(srv)
            shards.append(
                ShardEndpoint(shard_id=f"s{i}", host=srv.host, port=srv.port)
            )
        self.router = ShardRouter(
            shards,
            config=config
            or RouterConfig(replication=2, probe_interval_s=0.0),
            graph_resolver=graph_resolver,
        )

    def kill(self, shard_id: str) -> None:
        """Hard-stop one shard's HTTP server (the in-process 'crash')."""
        self.servers[int(shard_id[1:])].shutdown()

    def close(self) -> None:
        self.router.close()
        for srv in self.servers:
            srv.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def service() -> PartitionService:
    return tiny_service()
