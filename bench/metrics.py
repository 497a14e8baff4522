"""The metric dictionary: every name the benchmark prints, in one place.

``BENCHMARK.json`` at the repo root repeats :data:`END_TO_END` and
:data:`PER_LAYER` for the driver; ``bench/tests/test_harness.py`` asserts
the two agree, so a metric is added or renamed here and nowhere else.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None  # allowed worsening as a share of the base median
    what: str


#: What a user of the system sees.  Every workload reports every one of
#: these (the driver's contract); ``bench/README.md`` says what each means
#: on each workload.  Measured with tracing off.  The bounds on the
#: time-based metrics are set by this box, not by the program: ten-seed
#: run-to-run spreads reached 15% and the box's speed drifted by 20-30%
#: within an hour; ``alert_p90_ms`` (spread up to 68% in a noisy episode)
#: was demoted to ``loadgen.alert_p90_ms`` for that reason (bench/README.md).
END_TO_END = (
    Metric("alert_p50_ms", "ms", "lower", 0.25,
           "median time from a frame being due/submitted to its result in the caller's hands "
           "(of the least disturbed 0.5 s slice)"),
    Metric("frames_per_s", "1/s", "higher", 0.25,
           "frames whose verified output was delivered per wall-second of the timed window"),
    Metric("cpu_us_per_frame", "us", "lower", 0.25,
           "user+sys CPU of the system under test per delivered frame"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "peak resident set of the system under test (sum over its processes)"),
    Metric("setup_s", "s", "lower", 0.25,
           "median over the rounds: build, engine/gateway start, connect+open, warm-up"),
)

_L = "lower"
_H = "higher"

#: Single layers, measured from outside by ``bench/trace.py`` wrappers and
#: the program's public stats surfaces, in the traced segment of a
#: ``--trace 1`` run.  No bounds.  A layer a workload does not exercise
#: reads 0 in the contract line and is left out of the printed table.
PER_LAYER = (
    # rt30_wire per-frame telescoping waterfall (means, so they add)
    Metric("stage.client_send_mean_ms", "ms", _L, None, "due -> AsyncRemoteMonitorClient.feed returns"),
    Metric("stage.wire_in_mean_ms", "ms", _L, None, "-> gateway decode_frames returns"),
    Metric("stage.ingest_mean_ms", "ms", _L, None, "-> MonitorService.feed returns"),
    Metric("stage.queue_wait_mean_ms", "ms", _L, None, "-> start of the tick() that emits the frame"),
    Metric("stage.tick_mean_ms", "ms", _L, None, "-> that tick() returns"),
    Metric("stage.egress_mean_ms", "ms", _L, None, "-> encode_events returns"),
    Metric("stage.wire_out_mean_ms", "ms", _L, None, "-> client decode_events returns"),
    Metric("stage.client_recv_mean_ms", "ms", _L, None, "-> consumer holds the event"),
    Metric("stage.sum_over_e2e", "ratio", _L, None, "sum of stage means / traced mean alert latency (1.00 +- 0.01)"),
    # load generator
    Metric("loadgen.late_p50_ms", "ms", _L, None, "how late the open-loop generator sent, median"),
    Metric("loadgen.late_p99_ms", "ms", _L, None, "how late the open-loop generator sent, p99"),
    Metric("loadgen.cpu_us_per_frame", "us", _L, None, "bench process CPU per delivered frame"),
    Metric("loadgen.alert_p90_ms", "ms", _L, None,
           "alert latency p90 (ungated: the box owns the tail; rt30_wire reports a round above 33.3 ms)"),
    Metric("loadgen.alert_p99_ms", "ms", _L, None, "alert latency p99 (ungated)"),
    Metric("loadgen.alert_p999_ms", "ms", _L, None, "alert latency p99.9 (ungated)"),
    Metric("loadgen.alert_max_ms", "ms", _L, None, "alert latency maximum (ungated)"),
    # client + protocol
    Metric("client.feed_us_per_call", "us", _L, None, "AsyncRemoteMonitorClient.feed wall per call"),
    Metric("protocol.encode_frames_us_per_msg", "us", _L, None, "encode_frames per FRAME message"),
    Metric("protocol.decode_frames_us_per_msg", "us", _L, None, "decode_frames per FRAME message"),
    Metric("protocol.encode_events_us_per_event", "us", _L, None, "encode_events per event"),
    Metric("protocol.decode_events_us_per_event", "us", _L, None, "decode_events per event"),
    Metric("protocol.events_per_msg", "count", _H, None, "events per EVENT message (coalescing ratio)"),
    # gateway + fleet front
    Metric("gateway.cpu_us_per_frame", "us", _L, None, "gateway process CPU per delivered frame"),
    Metric("gateway.peak_queue_depth", "count", _L, None, "gateway_stats() queues.peak_depth"),
    Metric("gateway.events_dropped", "count", _L, None, "gateway_stats() events_dropped"),
    Metric("gateway.overflow_disconnects", "count", _L, None, "gateway_stats() connections.overflow_disconnects"),
    Metric("async_frontend.feed_us_per_call", "us", _L, None, "AsyncShardedMonitor.feed wall per call"),
    Metric("sharded.feed_us_per_call", "us", _L, None, "ShardedMonitorService.feed per call"),
    Metric("sharded.occupancy_skew", "ratio", _L, None, "max / mean sessions per shard"),
    # shm rings (router side)
    Metric("shm.write_frames_us_per_call", "us", _L, None, "ShmRing.try_write_frames per call"),
    Metric("shm.write_full_share", "ratio", _L, None, "share of try_write_frames returning False"),
    Metric("shm.read_events_us_per_call", "us", _L, None, "ShmRing.read_events per call"),
    Metric("shm.read_events_empty_share", "ratio", _L, None, "share of read_events polls returning nothing"),
    Metric("shm.bytes_per_frame", "B", _L, None, "frame-ring record bytes per frame written"),
    # shard workers (public shard_stats() + /proc only)
    Metric("worker.cpu_us_per_frame", "us", _L, None, "shard worker CPU per delivered frame"),
    Metric("worker.tick_p50_ms", "ms", _L, None, "worker tick latency median"),
    Metric("worker.tick_p99_ms", "ms", _L, None, "worker tick latency p99"),
    Metric("worker.batch_mean", "count", _H, None, "frames per worker tick"),
    Metric("worker.busy_share", "ratio", _L, None, "sum of tick ms / wall per worker"),
    # tick engine
    Metric("service.tick_count", "count", _L, None, "MonitorService ticks in the segment"),
    Metric("service.batch_mean", "count", _H, None, "frames per tick"),
    Metric("service.tick_p50_ms", "ms", _L, None, "tick latency median"),
    Metric("service.tick_self_us_per_frame", "us", _L, None, "tick() self time (minus windows/backends) per frame"),
    Metric("service.feed_us_per_call", "us", _L, None, "MonitorService.feed per call"),
    Metric("windows.push_us_per_frame", "us", _L, None, "StreamingWindowBatch.push per frame"),
    Metric("windows.view_us_per_call", "us", _L, None, "sliding_windows_view per call"),
    # inference backends, live inside tick()/score()
    Metric("backends.gesture_forward_us_per_window", "us", _L, None, "gesture-stage forward per window"),
    Metric("backends.error_forward_us_per_window", "us", _L, None, "error-stage forward per window"),
    Metric("backends.error_forwards_per_tick", "count", _L, None, "error-stage forwards per tick"),
    # ... and replayed in isolation on the workload's own windows
    Metric("backends.reference.predict_us_per_window", "us", _L, None, "reference predict_proba, batch 16"),
    Metric("backends.compiled.predict_us_per_window", "us", _L, None, "compiled predict_proba, batch 16"),
    Metric("backends.compiled-f32.predict_us_per_window", "us", _L, None, "compiled-f32 predict_proba, batch 16"),
    Metric("backends.reference.forward_bulk_us_per_window", "us", _L, None, "reference forward_bulk, bulk size"),
    Metric("backends.compiled.forward_bulk_us_per_window", "us", _L, None, "compiled forward_bulk, bulk size"),
    Metric("backends.compiled-f32.forward_bulk_us_per_window", "us", _L, None, "compiled-f32 forward_bulk, bulk size"),
    # bulk engine
    Metric("bulk.score_us_per_frame", "us", _L, None, "BulkScorer.score per frame"),
    Metric("bulk.gesture_stage_share", "ratio", _L, None, "gesture-stage forward share of score()"),
    Metric("bulk.error_stage_share", "ratio", _L, None, "error-stage forward share of score()"),
    # observability plane
    Metric("eventstore.append_us_per_event", "us", _L, None, "EventStoreWriter.append per event"),
    Metric("eventstore.dropped", "count", _L, None, "store drops (must be 0)"),
    Metric("eventstore.bytes_per_event", "B", _L, None, "bytes written per flushed event"),
    Metric("eventstore.replay_events_per_s", "1/s", _H, None, "EventStoreReader.replay rate"),
    Metric("telemetry.alert_latency_p50_us", "us", _L, None, "the engine's own feed->emit histogram median"),
    # set-up
    Metric("snapshot.to_bytes_ms", "ms", _L, None, "monitor_to_bytes"),
    Metric("snapshot.from_bytes_ms", "ms", _L, None, "monitor_from_bytes"),
    Metric("snapshot.bytes", "B", _L, None, "snapshot archive size"),
    Metric("setup.monitor_build_s", "s", _L, None, "monitor build (median over rounds)"),
    Metric("setup.engine_start_s", "s", _L, None, "engine construction / gateway child start"),
    Metric("setup.open_sessions_s", "s", _L, None, "connect + open every session"),
    Metric("setup.warmup_s", "s", _L, None, "warm-up feed until every event returned"),
    Metric("trace.overhead_share", "ratio", _L, None, "traced / untraced cpu_us_per_frame - 1"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
BOUNDS = {m.name: m.bound for m in END_TO_END}
