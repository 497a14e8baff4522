"""``numerics_fingerprint`` is visible wherever ``backend`` is.

Two endpoints may be compared bit for bit iff their backend names and
numerics fingerprints agree, so an operator has to be able to read both
from a running service, a fleet and a gateway.
"""

import asyncio

from repro.nn.layers.contract import numerics_fingerprint
from repro.serving import (
    MonitorGateway,
    MonitorService,
    ShardedMonitorService,
    make_synthetic_monitor,
)
from repro.serving.telemetry import TelemetryRegistry


def test_labels_merge_as_a_union_so_a_mixed_fleet_shows():
    registry = TelemetryRegistry()
    registry.label("numerics", "aaaa")
    other = TelemetryRegistry()
    other.label("numerics", "bbbb")
    other.label("numerics", "aaaa")
    registry.merge(other.snapshot())
    registry.merge({"counters": {"n": 1}})  # a snapshot from before labels existed
    assert registry.snapshot()["labels"] == {"numerics": ["aaaa", "bbbb"]}


def test_service_fleet_and_gateway_all_name_their_arithmetic():
    monitor = make_synthetic_monitor(n_features=6, seed=3)
    mine = numerics_fingerprint()
    service = MonitorService(monitor, max_sessions=1)
    assert service.telemetry.snapshot()["labels"] == {"numerics": [mine]}
    # Forked workers load the same kernels: the fleet reports one value.
    with ShardedMonitorService(monitor, n_shards=2, max_sessions_per_shard=1) as fleet:
        assert fleet.telemetry_snapshot()["labels"] == {"numerics": [mine]}

    async def stats():
        async with MonitorGateway(monitor, n_shards=1, max_sessions=1) as gateway:
            return await gateway.gateway_stats()

    payload = asyncio.run(stats())
    assert (payload["backend"], payload["numerics"]) == ("reference", mine)
    assert payload["telemetry"]["labels"] == {"numerics": [mine]}
