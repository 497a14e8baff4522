"""Per-layer metrics: span aggregates and public stats -> named numbers.

Everything here reads what ``bench/trace.py`` recorded around the public
callables, the program's own public stats surfaces (``gateway_stats()``,
``shard_stats()``, ``ServiceStats``, telemetry, store counters) and
``/proc`` — never a private attribute of the program.
"""

from __future__ import annotations

import time

import numpy as np

from .harness import Segment, median, pct
from .metrics import PER_LAYER_NAMES
from .trace import CHAIN, STAGES, Tracer

REPLAY_BATCH = 16  # isolated backend replay: the tick-sized batch
REPLAY_BULK = 512  # ... and the bulk size (one reference predict_proba chunk)


def zero_layers() -> dict:
    return {name: 0.0 for name in PER_LAYER_NAMES}


def setup_metrics(rounds: list[dict]) -> dict:
    """Per-part medians over the set-up rounds (parts of ``setup_s``)."""
    return {
        "setup.monitor_build_s": median([r["build_s"] for r in rounds]),
        "setup.engine_start_s": median([r["start_s"] for r in rounds]),
        "setup.open_sessions_s": median([r["open_s"] for r in rounds]),
        "setup.warmup_s": median([r["warmup_s"] for r in rounds]),
    }


def tail_metrics(seg: Segment) -> dict:
    return {
        "loadgen.late_p50_ms": pct(seg.late_ms, 50),
        "loadgen.late_p99_ms": pct(seg.late_ms, 99),
        "loadgen.cpu_us_per_frame": 1e6 * seg.loadgen_cpu_s / max(seg.frames, 1),
        "loadgen.alert_p90_ms": pct(seg.latencies_ms, 90),
        "loadgen.alert_p99_ms": pct(seg.latencies_ms, 99),
        "loadgen.alert_p999_ms": pct(seg.latencies_ms, 99.9),
        "loadgen.alert_max_ms": float(np.max(seg.latencies_ms)) if seg.latencies_ms.size else 0.0,
    }


def _us_per(tracer: Tracer, name: str, denom: float | None = None) -> float:
    calls = tracer.calls(name) if denom is None else denom
    return 1e6 * tracer.total_s(name) / calls if calls else 0.0


_GESTURE_FWD = (
    "backends.reference.predict", "backends.compiled.predict",
    "backends.base.score_bulk", "backends.compiled.score_bulk",
)
_ERROR_FWD = (
    "backends.reference.predict_proba", "backends.compiled.predict_proba",
    "backends.base.forward_bulk", "backends.compiled.forward_bulk",
)


def _forward(tracer: Tracer, names: tuple) -> tuple[float, float]:
    """``(seconds, windows)`` of one stage's top-level forward spans:
    ``predict`` calling ``predict_proba`` is one forward, not two."""
    return (
        sum(tracer.total_s(n, nested=False) for n in names),
        sum(tracer.counts.get(n + ".windows", 0) for n in names),
    )


def engine_layers(tracer: Tracer) -> dict:
    """service / windows / backends / bulk metrics from one process's
    (or the merged) span aggregates."""
    out = {
        "service.feed_us_per_call": _us_per(tracer, "service.feed"),
        "windows.view_us_per_call": _us_per(tracer, "windows.view"),
    }
    ticked = tracer.counts.get("service.tick.frames", 0)
    ticks = tracer.counts.get("service.tick.nonempty", 0)
    if ticked:
        out["service.tick_self_us_per_frame"] = 1e6 * tracer.self_s("service.tick") / ticked
        out["windows.push_us_per_frame"] = 1e6 * tracer.total_s("windows.push") / ticked
    gesture_s, gesture_windows = _forward(tracer, _GESTURE_FWD)
    error_s, error_windows = _forward(tracer, _ERROR_FWD)
    if gesture_windows:
        out["backends.gesture_forward_us_per_window"] = 1e6 * gesture_s / gesture_windows
    if error_windows:
        out["backends.error_forward_us_per_window"] = 1e6 * error_s / error_windows
    if ticks:
        out["backends.error_forwards_per_tick"] = (
            sum(tracer.calls(n, nested=False) for n in _ERROR_FWD) / ticks
        )
    scored = tracer.counts.get("bulk.score.frames", 0)
    score_s = tracer.total_s("bulk.score")
    if scored and score_s:
        out["bulk.score_us_per_frame"] = 1e6 * score_s / scored
        out["bulk.gesture_stage_share"] = gesture_s / score_s
        out["bulk.error_stage_share"] = error_s / score_s
    return out


def snapshot_layers(monitor) -> dict:
    from repro.serving import monitor_from_bytes, monitor_to_bytes

    t0 = time.perf_counter()
    blob = monitor_to_bytes(monitor)
    t1 = time.perf_counter()
    monitor_from_bytes(blob)
    t2 = time.perf_counter()
    return {
        "snapshot.to_bytes_ms": 1000.0 * (t1 - t0),
        "snapshot.from_bytes_ms": 1000.0 * (t2 - t1),
        "snapshot.bytes": float(len(blob)),
    }


def replay_backends(monitor, frames: np.ndarray, smoke: bool) -> dict:
    """Each backend, in isolation, on the workload's own gesture windows:
    ``predict_proba`` at batch 16 and ``forward_bulk`` at bulk size."""
    from repro.kinematics.windows import sliding_windows_view
    from repro.nn.backends import BACKEND_NAMES, make_backend

    clf = monitor.gesture_classifier
    if clf.config.feature_indices is not None:
        frames = frames[:, clf.config.feature_indices]
    windows, _ = sliding_windows_view(frames, clf.config.window)
    batch = np.ascontiguousarray(windows[:REPLAY_BATCH])
    bulk = windows[: (64 if smoke else REPLAY_BULK)]
    out = {}
    for name in BACKEND_NAMES:
        backend = make_backend(name, clf.scaler, clf.model, max_batch=REPLAY_BATCH)
        for key, fn, data, budget_s in (
            ("predict", backend.predict_proba, batch, 0.2),
            ("forward_bulk", backend.forward_bulk, bulk, 0.0),
        ):
            fn(data)  # warm: plan growth, page faults
            times = []
            spent = 0.0
            while len(times) < 2 or (spent < budget_s and len(times) < 200):
                t0 = time.perf_counter()
                fn(data)
                times.append(time.perf_counter() - t0)
                spent += times[-1]
                if smoke:
                    break
            out[f"backends.{name}.{key}_us_per_window"] = 1e6 * median(times) / len(data)
    return out


def _shard_window(before: dict, after: dict) -> dict:
    """Per-shard tick samples that fall inside one window, from two
    ``stats`` replies (cumulative counters + the retained tick ring)."""
    out = {}
    for index, shard in after["shards"].items():
        base = before["shards"].get(index, {"n_ticks": 0, "frames_processed": 0})
        ticks = shard["n_ticks"] - base["n_ticks"]
        samples = shard["tick_ms"][-ticks:] if ticks > 0 else []
        out[index] = {
            "ticks": ticks,
            "frames": shard["frames_processed"] - base["frames_processed"],
            "tick_ms": samples,
        }
    return out


def wire_layers(seg, tracer, child_reply, final_stats, store_stats) -> dict:
    """Per-layer metrics of one traced wire window."""
    out = {}
    frames = max(seg.frames, 1)
    out["client.feed_us_per_call"] = _us_per(tracer, "client.feed")
    out["protocol.encode_frames_us_per_msg"] = _us_per(tracer, "protocol.encode_frames")
    out["protocol.decode_frames_us_per_msg"] = _us_per(tracer, "protocol.decode_frames")
    enc = tracer.counts.get("protocol.encode_events.events", 0)
    dec = tracer.counts.get("protocol.decode_events.events", 0)
    out["protocol.encode_events_us_per_event"] = _us_per(tracer, "protocol.encode_events", enc)
    out["protocol.decode_events_us_per_event"] = _us_per(tracer, "protocol.decode_events", dec)
    calls = tracer.calls("protocol.decode_events")
    out["protocol.events_per_msg"] = dec / calls if calls else 0.0
    out["gateway.cpu_us_per_frame"] = 1e6 * seg.gateway_cpu_s / frames
    gstats = final_stats["gateway_stats"]
    out["gateway.peak_queue_depth"] = float(gstats["queues"]["peak_depth"])
    out["gateway.events_dropped"] = float(gstats["events_dropped"])
    out["gateway.overflow_disconnects"] = float(gstats["connections"]["overflow_disconnects"])
    out["async_frontend.feed_us_per_call"] = _us_per(tracer, "async_frontend.feed")
    out["sharded.feed_us_per_call"] = _us_per(tracer, "sharded.feed")
    occupancy = list((child_reply.get("occupancy") or {}).values())
    if occupancy and sum(occupancy):
        out["sharded.occupancy_skew"] = max(occupancy) / (sum(occupancy) / len(occupancy))
    writes = tracer.calls("shm.try_write_frames")
    out["shm.write_frames_us_per_call"] = _us_per(tracer, "shm.try_write_frames")
    out["shm.write_full_share"] = tracer.counts.get("shm.write.full", 0) / writes if writes else 0.0
    reads = tracer.calls("shm.read_events")
    out["shm.read_events_us_per_call"] = _us_per(tracer, "shm.read_events")
    out["shm.read_events_empty_share"] = tracer.counts.get("shm.read.empty", 0) / reads if reads else 0.0
    written = tracer.counts.get("shm.write.frames", 0)
    out["shm.bytes_per_frame"] = tracer.counts.get("shm.write.bytes", 0) / written if written else 0.0
    shards = _shard_window(seg.stats_before, seg.stats_after)
    ticks = sum(s["ticks"] for s in shards.values())
    ticked = sum(s["frames"] for s in shards.values())
    samples = [v for s in shards.values() for v in s["tick_ms"]]
    out["service.tick_count"] = float(ticks)
    out["service.batch_mean"] = ticked / ticks if ticks else 0.0
    out["service.tick_p50_ms"] = pct(samples, 50)
    if final_stats["worker_pids"]:  # a fleet: the ticks ran in shard workers
        out["worker.cpu_us_per_frame"] = 1e6 * seg.worker_cpu_s / frames
        out["worker.tick_p50_ms"] = pct(samples, 50)
        out["worker.tick_p99_ms"] = pct(samples, 99)
        out["worker.batch_mean"] = out["service.batch_mean"]
        out["worker.busy_share"] = (
            sum(samples) / 1000.0 / (seg.window_s * len(shards)) if seg.window_s else 0.0
        )
    out.update(engine_layers(tracer))
    out["eventstore.append_us_per_event"] = _us_per(tracer, "eventstore.append")
    if store_stats:
        out["eventstore.dropped"] = float(store_stats["dropped"])
        flushed = store_stats["flushed"]
        out["eventstore.bytes_per_event"] = store_stats["bytes_written"] / flushed if flushed else 0.0
    out["telemetry.alert_latency_p50_us"] = telemetry_p50(gstats.get("telemetry") or {})
    return out


def telemetry_p50(snapshot: dict) -> float:
    histogram = (snapshot.get("histograms") or {}).get("alert_latency_us")
    return float(histogram["p50"]) if histogram else 0.0


def stage_metrics(stamps: dict, seg: Segment) -> dict:
    """The per-frame telescoping waterfall: stage k is the mean, over the
    frames carrying every stamp, of stamp k minus stamp k-1 — so the
    stage means add up to the mean alert latency of those frames."""
    keys = set(stamps.get(CHAIN[0], {}))
    for name in CHAIN[1:]:
        keys &= set(stamps.get(name, {}))
    out = {f"stage.{s}_mean_ms": 0.0 for s in STAGES}
    if not keys:
        out["stage.sum_over_e2e"] = 0.0
        return out
    keys = sorted(keys)
    cols = np.array([[stamps[name][k] for name in CHAIN] for k in keys])
    steps = 1000.0 * np.diff(cols, axis=1).mean(axis=0)
    for stage, value in zip(STAGES, steps):
        out[f"stage.{stage}_mean_ms"] = float(value)
    # Against the mean over *all* frames delivered in the traced window:
    # 1.00 only if (nearly) every frame carried every stamp.
    mean_all = float(seg.latencies_ms.mean()) if seg.latencies_ms.size else 0.0
    covered = len(keys) / max(seg.frames, 1)
    out["stage.sum_over_e2e"] = float(steps.sum()) * covered / mean_all if mean_all else 0.0
    return out
