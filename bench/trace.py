"""Bench-owned span wrappers around a fixed table of public callables.

Layers are measured from outside: :class:`Tracer` rebinds every
``repro.*`` module attribute that *is* one of the :data:`TABLE`
functions (the gateway does ``from .protocol import decode_frames``) and
patches methods on their classes, for the length of a traced segment
only.  Each wrapper records a span — name, start, end, parent (the span
active in the calling thread or task), request id — plus call counts,
all in memory; :meth:`Tracer.dump` writes them out at the end.  A
span's self time is its duration minus the part its child spans cover.

``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so stamps taken in
the load generator and in the gateway child share one clock.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from typing import Callable, NamedTuple

#: Spans kept verbatim per process; aggregates keep counting past it.
MAX_SPANS = 100_000


class Entry(NamedTuple):
    name: str  # "<layer>.<callable>", layer = module
    module: str
    owner: str | None  # class name, or None for a module function
    attr: str
    hook: str | None = None  # Tracer method fed (args, result, t0, t1)


_PROTOCOL = "repro.serving.remote.protocol"
_BACKENDS = "repro.nn.backends"

TABLE = (
    Entry("client.feed", "repro.serving.remote.client", "AsyncRemoteMonitorClient", "feed"),
    Entry("client.open_session", "repro.serving.remote.client", "AsyncRemoteMonitorClient", "open_session"),
    Entry("protocol.encode_frames", _PROTOCOL, None, "encode_frames"),
    Entry("protocol.decode_frames", _PROTOCOL, None, "decode_frames", "_on_decode_frames"),
    Entry("protocol.encode_events", _PROTOCOL, None, "encode_events", "_on_encode_events"),
    Entry("protocol.decode_events", _PROTOCOL, None, "decode_events", "_on_decode_events"),
    Entry("async_frontend.feed", "repro.serving.async_frontend", "AsyncShardedMonitor", "feed"),
    Entry("sharded.feed", "repro.serving.sharded", "ShardedMonitorService", "feed", "_on_sharded_feed"),
    Entry("sharded.tick_shard", "repro.serving.sharded", "ShardedMonitorService", "tick_shard"),
    Entry("shm.try_write_frames", "repro.serving.shm", "ShmRing", "try_write_frames", "_on_write_frames"),
    Entry("shm.read_events", "repro.serving.shm", "ShmRing", "read_events", "_on_read_events"),
    Entry("service.open_session", "repro.serving.service", "MonitorService", "open_session"),
    Entry("service.feed", "repro.serving.service", "MonitorService", "feed", "_on_service_feed"),
    Entry("service.tick", "repro.serving.service", "MonitorService", "tick", "_on_service_tick"),
    Entry("windows.push", "repro.kinematics.windows", "StreamingWindowBatch", "push"),
    Entry("windows.view", "repro.kinematics.windows", None, "sliding_windows_view"),
    Entry("backends.base.forward_bulk", _BACKENDS + ".base", "InferenceBackend", "forward_bulk", "_on_windows"),
    Entry("backends.base.score_bulk", _BACKENDS + ".base", "InferenceBackend", "score_bulk", "_on_windows"),
    Entry("backends.reference.predict", _BACKENDS + ".reference", "ReferenceBackend", "predict", "_on_windows"),
    Entry("backends.reference.predict_proba", _BACKENDS + ".reference", "ReferenceBackend", "predict_proba", "_on_windows"),
    Entry("backends.compiled.predict", _BACKENDS + ".compiled", "CompiledBackend", "predict", "_on_windows"),
    Entry("backends.compiled.predict_proba", _BACKENDS + ".compiled", "CompiledBackend", "predict_proba", "_on_windows"),
    Entry("backends.compiled.forward_bulk", _BACKENDS + ".compiled", "CompiledBackend", "forward_bulk", "_on_windows"),
    Entry("backends.compiled.score_bulk", _BACKENDS + ".compiled", "CompiledBackend", "score_bulk", "_on_windows"),
    Entry("bulk.score", "repro.serving.bulk", "BulkScorer", "score", "_on_bulk_score"),
    Entry("bulk.score_many", "repro.serving.bulk", "BulkScorer", "score_many"),
    Entry("eventstore.append", "repro.serving.eventstore", "EventStoreWriter", "append"),
    Entry("eventstore.append_batch", "repro.serving.eventstore", "EventStoreWriter", "append_batch"),
    Entry("snapshot.monitor_to_bytes", "repro.serving.snapshot", None, "monitor_to_bytes"),
    Entry("snapshot.monitor_from_bytes", "repro.serving.snapshot", None, "monitor_from_bytes"),
)

#: The per-frame stamps of the waterfall, in order ...
CHAIN = (
    "due", "client_send", "wire_in", "ingest", "tick_start",
    "tick", "egress", "wire_out", "client_recv",
)
#: ... and the ``stage.*`` each consecutive pair of stamps bounds.
STAGES = (
    "client_send", "wire_in", "ingest", "queue_wait",
    "tick", "egress", "wire_out", "client_recv",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory spans, per-name aggregates, counters, per-frame stamps."""

    def __init__(self, stamps: bool = False) -> None:
        self.spans: list[tuple] = []  # (id, name, t0, t1, parent id, request id)
        self.truncated = False
        #: key -> [calls, total s, child s]; key is the span name, with
        #: "#nested" appended when the parent span is of the same layer
        #: (predict -> predict_proba), so layer totals never double count.
        self.agg: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        #: stage -> {(session id, frame index): perf_counter stamp}
        self.stamps: dict[str, dict] = {s: {} for s in CHAIN}
        self.want_stamps = stamps
        #: frames fed per session so far, so ``MonitorService.feed`` spans
        #: (whose arguments carry no index) can be given their request id.
        self.fed: dict[str, int] = {}
        self.sharded_service = None  # captured from the first sharded.feed span
        self._ids = itertools.count()
        #: The gateway ticks on executor threads: aggregates are shared.
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_trace_current", default=None
        )
        self._patches: list[tuple] = []  # (owner object, attr, original)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _enter(self, name: str):
        parent = self._current.get()
        nested = parent is not None and _layer(parent[1]) == _layer(name)
        frame = [next(self._ids), name, 0.0, nested]  # id, name, child seconds, nested
        return parent, frame, self._current.set(frame)

    def _exit(self, parent, frame, token, t0: float, t1: float, rid) -> None:
        self._current.reset(token)
        span_id, name, child_s, nested = frame
        duration = t1 - t0
        key = name + "#nested" if nested else name
        parent_id = None
        if parent is not None:
            parent[2] += duration
            parent_id = parent[0]
        with self._lock:
            row = self.agg.get(key)
            if row is None:
                row = self.agg[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += child_s
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, name, t0, t1, parent_id, rid))
            else:
                self.truncated = True

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                parent, frame, token = self._enter(name)
                t0 = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    t1 = time.perf_counter()
                    rid = hook(args, result, t0, t1) if hook is not None else None
                    self._exit(parent, frame, token, t0, t1, rid)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent, frame, token = self._enter(name)
                t0 = time.perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = time.perf_counter()
                    rid = hook(args, result, t0, t1) if hook is not None else None
                    self._exit(parent, frame, token, t0, t1, rid)

        return traced

    def install(self) -> None:
        """Wrap every :data:`TABLE` callable in this process."""
        for entry in TABLE:
            module = importlib.import_module(entry.module)
            hook = getattr(self, entry.hook) if entry.hook else None
            if entry.owner is not None:
                owner = getattr(module, entry.owner)
                original = owner.__dict__[entry.attr]
                self._bind(owner, entry.attr, original, self.wrap(entry.name, original, hook))
                continue
            original = getattr(module, entry.attr)
            wrapper = self.wrap(entry.name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, attr, original, wrapper)

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Hooks: request ids, counters, per-frame stamps
    # ------------------------------------------------------------------
    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _on_decode_frames(self, args, result, t0, t1):
        if result is None:
            return None
        session_id, seq, frames = result
        self.count("protocol.decode_frames.frames", frames.shape[0])
        if self.want_stamps:
            stamps = self.stamps["wire_in"]
            for i in range(frames.shape[0]):
                stamps[(session_id, seq + i)] = t1
        return (session_id, seq)

    def _on_service_feed(self, args, result, t0, t1):
        session_id, frames = args[1], args[2]
        rows = 1 if getattr(frames, "ndim", 2) == 1 else len(frames)
        base = self.fed.get(session_id, 0)
        self.fed[session_id] = base + rows
        if self.want_stamps:
            stamps = self.stamps["ingest"]
            for i in range(rows):
                stamps[(session_id, base + i)] = t1
        return (session_id, base)

    def _on_service_tick(self, args, result, t0, t1):
        if not result:
            return None
        self.count("service.tick.frames", len(result))
        self.count("service.tick.nonempty")
        if self.want_stamps:
            starts, ends = self.stamps["tick_start"], self.stamps["tick"]
            for event in result:
                key = (event.session_id, event.frame_index)
                starts[key] = t0
                ends[key] = t1
        return (result[0].session_id, result[0].frame_index)

    def _on_encode_events(self, args, result, t0, t1):
        events = args[0]
        self.count("protocol.encode_events.events", len(events))
        if self.want_stamps:
            stamps = self.stamps["egress"]
            for event in events:
                stamps[(event.session_id, event.frame_index)] = t1
        return (events[0].session_id, events[0].frame_index) if events else None

    def _on_decode_events(self, args, result, t0, t1):
        if not result:
            return None
        self.count("protocol.decode_events.events", len(result))
        if self.want_stamps:
            stamps = self.stamps["wire_out"]
            for event in result:
                stamps[(event.session_id, event.frame_index)] = t1
        return (result[0].session_id, result[0].frame_index)

    def _on_sharded_feed(self, args, result, t0, t1):
        self.sharded_service = args[0]
        return None

    def _on_write_frames(self, args, result, t0, t1):
        frames = args[2]
        if result:
            self.count("shm.write.frames", frames.shape[0])
            # Record layout per repro.serving.shm: 8-byte record header,
            # 16 bytes of route/rows/cols, the float64 payload, 8-aligned.
            self.count("shm.write.bytes", (24 + frames.nbytes + 7) // 8 * 8)
        else:
            self.count("shm.write.full")
        return None

    def _on_read_events(self, args, result, t0, t1):
        if result is None:
            self.count("shm.read.empty")
        return None

    def _on_windows(self, args, result, t0, t1):
        frame = self._current.get()
        if not frame[3]:  # predict -> predict_proba is one forward, not two
            self.count(frame[1] + ".windows", len(args[1]))
        return None

    def _on_bulk_score(self, args, result, t0, t1):
        self.count("bulk.score.frames", args[1].n_frames)
        return None

    # ------------------------------------------------------------------
    # Reading out
    # ------------------------------------------------------------------
    def total_s(self, name: str, nested: bool = True) -> float:
        keys = (name, name + "#nested") if nested else (name,)
        return sum(self.agg[k][1] for k in keys if k in self.agg)

    def calls(self, name: str, nested: bool = True) -> int:
        keys = (name, name + "#nested") if nested else (name,)
        return sum(self.agg[k][0] for k in keys if k in self.agg)

    def self_s(self, name: str) -> float:
        return sum(
            self.agg[k][1] - self.agg[k][2]
            for k in (name, name + "#nested") if k in self.agg
        )

    def summary(self) -> dict:
        """JSON-shaped aggregates (what crosses the child's pipe)."""
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "counts": dict(self.counts),
            "truncated": self.truncated,
            "n_spans": len(self.spans),
        }

    def dump(self) -> dict:
        """Everything, JSON-shaped, for ``bench/out/trace-*.json``."""
        out = self.summary()
        out["spans"] = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "request": list(s[5]) if s[5] else None}
            for s in self.spans
        ]
        out["stamps"] = {
            stage: [[sid, idx, t] for (sid, idx), t in stamps.items()]
            for stage, stamps in self.stamps.items() if stamps
        }
        return out


def merged(summaries: list[dict]) -> Tracer:
    """One read-only :class:`Tracer` view over several processes'
    :meth:`Tracer.summary` dicts (names do not overlap across them)."""
    out = Tracer()
    for summary in summaries:
        for key, (calls, total, child) in summary["agg"].items():
            row = out.agg.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += child
        for key, value in summary["counts"].items():
            out.count(key, value)
        out.truncated = out.truncated or summary["truncated"]
    return out
