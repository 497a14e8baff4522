"""The load generator for the wire workloads.

One process, one asyncio loop: :class:`GatewayChild` owns the system
under test (``bench/gateway_proc.py``), :class:`WireRig` the multiplexed
client connections, the per-connection consumers and the two traffic
shapes — :meth:`WireRig.open_loop` (paced, timed from each frame's *due*
time) and :meth:`WireRig.closed_loop` (next chunk only after every event
of the previous one).  Every wait on the program is bounded, so a hang
becomes failed operations, never a hung benchmark.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import harness
from .harness import BenchError, Segment
from .trace import Tracer

DRAIN_TIMEOUT_S = 20.0  # after a window: events still missing then are failed
CHILD_TIMEOUT_S = 60.0  # any single exchange with the gateway child
SPIN_S = 0.0015  # open loop: sleep to this far before a due time, then yield-spin


def take(frames: np.ndarray, start: int, count: int) -> np.ndarray:
    """``count`` rows from stream position ``start``; a trajectory that
    runs out repeats from its beginning (the oracle is fed the same)."""
    length = frames.shape[0]
    lo = start % length
    if lo + count <= length:
        return frames[lo : lo + count]
    return frames[np.arange(start, start + count) % length]


class GatewayChild:
    """The system under test, one process, spoken to over its stdio."""

    def __init__(self, config: dict) -> None:
        self.config = config
        self.proc: asyncio.subprocess.Process | None = None

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    async def start(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(harness.ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(Path(__file__).resolve().parent / "gateway_proc.py"),
            json.dumps(self.config),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=env, limit=1 << 26,
        )
        ready = await self._read()
        if not ready.get("ready"):
            raise BenchError(f"gateway child did not come up: {ready}")
        return ready

    async def _read(self) -> dict:
        assert self.proc is not None and self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), CHILD_TIMEOUT_S)
        if not line:
            raise BenchError(
                f"gateway child exited (code {self.proc.returncode}) without replying"
            )
        return json.loads(line)

    async def command(self, **request) -> dict:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        await self.proc.stdin.drain()
        return await self._read()

    async def stop(self) -> dict:
        """Graceful stop; escalates so no child ever outlives the run."""
        if self.proc is None:
            return {}
        reply: dict = {}
        if self.proc.returncode is None:
            try:
                reply = await self.command(cmd="stop")
            except (BenchError, asyncio.TimeoutError, ConnectionError, ValueError):
                self.proc.terminate()
            try:
                await asyncio.wait_for(self.proc.wait(), 15.0)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        self.proc = None
        return reply


class _WireSession:
    __slots__ = ("id", "client", "frames", "sent", "events", "recv_t", "ref_t", "target", "done")

    def __init__(self, session_id: str, client, frames: np.ndarray) -> None:
        self.id = session_id
        self.client = client
        self.frames = frames
        self.sent = 0  # stream position == frames fed so far
        self.events: list = []  # every SessionEvent received, arrival order
        self.recv_t: list = []  # perf_counter at receipt, same order
        self.ref_t: list = []  # per frame index: due time / chunk send time
        self.target = 0
        self.done = asyncio.Event()


class WireRig:
    """Gateway child + multiplexed client connections + consumers."""

    def __init__(
        self, workload, inputs, monitor_args, gateway_args, store, sut_cores, run_dir,
        warmup_frames, slice_s,
    ) -> None:
        self.workload = workload
        self.inputs = inputs
        self.warmup_frames = warmup_frames
        self.slice_s = slice_s
        self.store_dir = str(Path(run_dir) / "store") if store else None
        self.child_config = {
            "monitor": monitor_args, "gateway": gateway_args, "cores": sut_cores,
            "store_dir": self.store_dir, "run_dir": str(run_dir),
        }
        self.n_connections = min(os.cpu_count() or 1, 4)
        self.child: GatewayChild | None = None
        self.clients: list = []
        self.sessions: list[_WireSession] = []
        self.by_id: dict[str, _WireSession] = {}
        self.consumers: list[asyncio.Task] = []
        self.consumer_errors: list[str] = []
        self.tracer: Tracer | None = None  # set for a traced window

    # -- set-up / tear-down ---------------------------------------------
    async def setup(self) -> dict:
        from repro.serving import AsyncRemoteMonitorClient

        t0 = time.perf_counter()
        self.consumer_errors = []
        self.child = GatewayChild(self.child_config)
        ready = await self.child.start()
        t1 = time.perf_counter()
        for _ in range(self.n_connections):
            self.clients.append(
                await AsyncRemoteMonitorClient.connect("127.0.0.1", ready["port"], timeout_s=30.0)
            )
        for i, frames in enumerate(self.inputs):
            client = self.clients[i % self.n_connections]
            session_id = await client.open_session(f"{self.workload}-{i:03d}")
            session = _WireSession(session_id, client, frames)
            self.sessions.append(session)
            self.by_id[session_id] = session
        self.consumers = [
            asyncio.create_task(self._consume(c), name="bench-consumer") for c in self.clients
        ]
        t2 = time.perf_counter()
        now = time.perf_counter()
        for s in self.sessions:
            await self._send(s, self.warmup_frames, now)
        await self._await_all(DRAIN_TIMEOUT_S)
        t3 = time.perf_counter()
        return {
            "total_s": t3 - t0, "build_s": ready["build_s"],
            # child start covers interpreter + imports + gateway.start()
            "start_s": (t1 - t0) - ready["build_s"],
            "open_s": t2 - t1, "warmup_s": t3 - t2,
        }

    async def teardown(self) -> dict:
        for task in self.consumers:
            task.cancel()
        await asyncio.gather(*self.consumers, return_exceptions=True)
        from repro.errors import ReproError

        # Close every session before its connection: a bare disconnect
        # makes the gateway tee one terminal fail-safe event per session
        # into the store, which the clients never saw.
        for session in self.sessions:
            with contextlib.suppress(ReproError, asyncio.TimeoutError, OSError):
                await asyncio.wait_for(session.client.close_session(session.id), 10.0)
        for client in self.clients:
            with contextlib.suppress(asyncio.TimeoutError, OSError):
                await asyncio.wait_for(client.aclose(), 10.0)
        reply = await self.child.stop() if self.child is not None else {}
        self.consumers, self.clients, self.sessions, self.by_id = [], [], [], {}
        self.child = None
        return reply

    # -- traffic ---------------------------------------------------------
    async def _consume(self, client) -> None:
        by_id = self.by_id
        try:
            while True:
                event = await client.next_event()
                now = time.perf_counter()
                session = by_id[event.session_id]
                session.events.append(event)
                session.recv_t.append(now)
                tracer = self.tracer
                if tracer is not None and tracer.want_stamps:
                    tracer.stamps["client_recv"][(event.session_id, event.frame_index)] = now
                if len(session.events) >= session.target:
                    session.done.set()
        except Exception as exc:  # noqa: BLE001 - whatever ends a consumer,
            # the waiters must be released and the cause reported as
            # failed operations, not left as a hung benchmark.
            self.consumer_errors.append(f"{type(exc).__name__}: {exc}")
            for session in self.sessions:
                session.done.set()  # nothing further will arrive

    async def _send(self, session: _WireSession, count: int, ref_t: float) -> None:
        from repro.errors import ReproError

        frames = take(session.frames, session.sent, count)
        session.ref_t.extend([ref_t] * count)
        session.target = session.sent + count
        session.done.clear()
        session.sent += count
        try:
            await session.client.feed(session.id, frames)
        except ReproError as exc:  # connection lost: these frames count as failed
            self.consumer_errors.append(f"feed: {type(exc).__name__}: {exc}")
            session.done.set()

    async def _await_all(self, timeout_s: float) -> bool:
        """Wait until every fed frame's event arrived; False on timeout."""
        async def wait_all():
            for session in self.sessions:
                while len(session.events) < session.sent and not self.consumer_errors:
                    session.target = session.sent
                    session.done.clear()
                    await session.done.wait()

        try:
            await asyncio.wait_for(wait_all(), timeout_s)
        except asyncio.TimeoutError:
            return False
        return not self.consumer_errors

    async def open_loop(self, seconds: float, rate_hz: float, record: bool = True) -> Segment:
        """Paced at ``rate_hz`` per session, phases staggered evenly;
        each frame is timed from when it was *due*."""
        seg = Segment()
        n = len(self.sessions)
        period = 1.0 / (rate_hz * n)
        total = int(round(seconds * rate_hz)) * n
        marks = [len(s.events) for s in self.sessions]
        late = []
        tracer = self.tracer if self.tracer is not None and self.tracer.want_stamps else None
        cpu0 = self._cpu()
        start = time.perf_counter() + 0.005
        for j in range(total):
            if self.consumer_errors:
                break
            session = self.sessions[j % n]
            due = start + j * period
            delay = due - time.perf_counter()
            if delay > SPIN_S:
                await asyncio.sleep(delay - SPIN_S)
            while time.perf_counter() < due:
                await asyncio.sleep(0)  # lets the consumers run; epoll has 1 ms grain
            late.append(time.perf_counter() - due)
            index = session.sent
            await self._send(session, 1, due)
            if tracer is not None:
                key = (session.id, index)
                tracer.stamps["due"][key] = due
                tracer.stamps["client_send"][key] = time.perf_counter()
        drained = await self._await_all(DRAIN_TIMEOUT_S)
        cpu1 = self._cpu()
        self._fill(seg, marks, start, cpu0, cpu1, record)
        seg.late_ms = 1000.0 * np.asarray(late)
        if not drained:
            seg.note = "events missing after the drain timeout"
        return seg

    async def closed_loop(self, seconds: float, chunk: int) -> Segment:
        """Each session sends its next ``chunk`` frames only after every
        event of the previous chunk arrived; runs until the deadline,
        then drains."""
        seg = Segment()
        marks = [len(s.events) for s in self.sessions]
        cpu0 = self._cpu()
        start = time.perf_counter()
        deadline = start + seconds

        async def drive(session: _WireSession) -> None:
            while time.perf_counter() < deadline and not self.consumer_errors:
                await self._send(session, chunk, time.perf_counter())
                await session.done.wait()

        tasks = [asyncio.create_task(drive(s)) for s in self.sessions]
        try:
            await asyncio.wait_for(asyncio.gather(*tasks), seconds + DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            seg.note = "events missing after the drain timeout"
            await asyncio.gather(*tasks, return_exceptions=True)  # wait_for cancelled them
        cpu1 = self._cpu()
        self._fill(seg, marks, start, cpu0, cpu1, True)
        return seg

    def _cpu(self) -> dict:
        assert self.child is not None
        gateway = harness.proc_cpu_s(self.child.pid)
        workers = sum(harness.proc_cpu_s(p) for p in harness.child_pids(self.child.pid))
        return {"gateway": gateway, "workers": workers, "self": time.process_time()}

    def _fill(self, seg, marks, start, cpu0, cpu1, record) -> None:
        received, latencies = [], []
        for session, mark in zip(self.sessions, marks):
            for event, recv_t in zip(session.events[mark:], session.recv_t[mark:]):
                if 0 <= event.frame_index < len(session.ref_t):
                    received.append(recv_t)
                    latencies.append(recv_t - session.ref_t[event.frame_index])
            seg.frames += len(session.events) - mark
        seg.window_s = max(received, default=start) - start
        if record:  # in order of receipt, so the backlog check reads time
            order = np.argsort(np.asarray(received), kind="stable")
            seg.latencies_ms = 1000.0 * np.asarray(latencies)[order]
            seg.slice_p50_ms = harness.slice_medians(
                np.asarray(received)[order], seg.latencies_ms, start, self.slice_s
            )
        seg.gateway_cpu_s = cpu1["gateway"] - cpu0["gateway"]
        seg.worker_cpu_s = cpu1["workers"] - cpu0["workers"]
        seg.sut_cpu_s = seg.gateway_cpu_s + seg.worker_cpu_s
        seg.loadgen_cpu_s = cpu1["self"] - cpu0["self"]

    def sut_peak_rss_mb(self) -> float:
        assert self.child is not None
        pids = [self.child.pid] + harness.child_pids(self.child.pid)
        return sum(harness.proc_peak_rss_mb(p) for p in pids)

    # -- verification ------------------------------------------------------
    def sent_frames(self) -> dict[str, np.ndarray]:
        return {s.id: take(s.frames, 0, s.sent) for s in self.sessions}


