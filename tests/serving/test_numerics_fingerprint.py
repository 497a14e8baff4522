"""``numerics_fingerprint`` is visible wherever ``backend`` is.

Two endpoints may be compared bit for bit iff their backend names and
numerics fingerprints agree, so an operator has to be able to read both
from a running service, a fleet and a gateway.  Next to it sits
``gesture_path``: whether the gesture stage steps its LSTM chains a
frame at a time or scores whole windows (read from the model's layers;
nothing depends on the label), and ``error_path``: whether the error
stage stacks a tick's short gesture contexts into one forward or calls
one member model per context — with the two counters that say how often
each happened (``error_stacked_passes``, ``error_member_calls``).
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
    # The synthetic monitor's gesture model is the paper's stacked LSTM,
    # its library twelve members of one architecture.
    labels = {
        "numerics": [mine],
        "gesture_path": ["stepped"],
        "error_path": ["stacked"],
    }
    invocations = {"error_member_calls": 0, "error_stacked_passes": 0}
    service = MonitorService(monitor, max_sessions=1)
    assert service.telemetry.snapshot()["labels"] == labels
    assert service.telemetry.snapshot()["counters"] == invocations
    # Forked workers load the same kernels: the fleet reports one value.
    with ShardedMonitorService(monitor, n_shards=2, max_sessions_per_shard=1) as fleet:
        assert fleet.telemetry_snapshot()["labels"] == labels
        counters = fleet.telemetry_snapshot()["counters"]
        assert {name: counters[name] for name in invocations} == invocations

    async def stats():
        async with MonitorGateway(monitor, n_shards=1, max_sessions=1) as gateway:
            return await gateway.gateway_stats()

    payload = asyncio.run(stats())
    assert (payload["backend"], payload["numerics"]) == ("reference", mine)
    assert payload["telemetry"]["labels"] == labels
    counters = payload["telemetry"]["counters"]
    assert {name: counters[name] for name in invocations} == invocations


def test_error_path_counts_model_invocations_per_tick():
    """One session is one context: one member call per scored tick.
    Several sessions in different contexts: one stacked pass instead."""
    monitor = make_synthetic_monitor(n_features=6, seed=3)
    frames = np.random.default_rng(0).standard_normal((4, 20, 6)) * 2.0
    lone = MonitorService(monitor, max_sessions=1)
    lone.feed(lone.open_session(), frames[0])
    lone.drain()
    counters = lone.telemetry.snapshot()["counters"]
    assert counters["error_stacked_passes"] == 0
    assert 0 < counters["error_member_calls"] <= 16  # 20 frames less warm-up

    fleet = MonitorService(monitor, max_sessions=4)
    for stream in frames:
        fleet.feed(fleet.open_session(), stream)
    fleet.drain()
    counters = fleet.telemetry.snapshot()["counters"]
    assert counters["error_stacked_passes"] > 0
    assert counters["error_stacked_passes"] + counters["error_member_calls"] <= 16
    for backend in ("compiled", "compiled-f32"):
        service = MonitorService(monitor, max_sessions=4, backend=backend)
        for stream in frames:
            service.feed(service.open_session(), stream)
        service.drain()
        snapshot = service.telemetry.snapshot()
        assert snapshot["labels"]["error_path"] == ["per-member"]
        assert snapshot["counters"]["error_stacked_passes"] == 0
        assert snapshot["counters"]["error_member_calls"] > 16


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
