"""``numerics_fingerprint`` is visible wherever ``backend`` is.

Two endpoints may be compared bit for bit iff their backend names and
numerics fingerprints agree, so an operator has to be able to read both
from a running service, a fleet and a gateway.  Next to it sits
``gesture_path``: whether the gesture stage steps its LSTM chains a
frame at a time or scores whole windows (read from the model's layers;
nothing depends on the label).
"""

import asyncio

import numpy as np

from repro import nn
from repro.gestures.vocabulary import N_GESTURE_CLASSES
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
    # The synthetic monitor's gesture model is the paper's stacked LSTM.
    labels = {"numerics": [mine], "gesture_path": ["stepped"]}
    service = MonitorService(monitor, max_sessions=1)
    assert service.telemetry.snapshot()["labels"] == labels
    # Forked workers load the same kernels: the fleet reports one value.
    with ShardedMonitorService(monitor, n_shards=2, max_sessions_per_shard=1) as fleet:
        assert fleet.telemetry_snapshot()["labels"] == labels

    async def stats():
        async with MonitorGateway(monitor, n_shards=1, max_sessions=1) as gateway:
            return await gateway.gateway_stats()

    payload = asyncio.run(stats())
    assert (payload["backend"], payload["numerics"]) == ("reference", mine)
    assert payload["telemetry"]["labels"] == labels


def test_gesture_path_is_read_from_the_models_layers():
    monitor = make_synthetic_monitor(n_features=6, seed=3)
    classifier = monitor.gesture_classifier
    stub = nn.Sequential(
        [nn.Flatten(), nn.Dense(N_GESTURE_CLASSES)], seed=0
    )  # a gesture model that does not lead with an LSTM
    stub.build((classifier.config.window.window, 6))
    stub.compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-3))
    lstm = classifier.model
    classifier.model = stub
    for backend in ("reference", "compiled"):
        service = MonitorService(monitor, max_sessions=1, backend=backend)
        assert service.telemetry.snapshot()["labels"]["gesture_path"] == ["windowed"]
    # A service that has run both (the model was rebound) says so.
    service.open_session("s")
    service.feed("s", np.zeros((7, 6)))
    service.drain()
    classifier.model = lstm
    service.feed("s", np.zeros((1, 6)))
    service.drain()
    assert service.telemetry.snapshot()["labels"]["gesture_path"] == [
        "stepped", "windowed",
    ]
