"""Reusable chaos campaign for the remote gateway's resume machinery.

Drives a fleet of sessions over a real TCP gateway while a seeded RNG
injects faults — abrupt client disconnects followed by resumes on fresh
connections, SIGKILLed shard workers, mid-stream fleet resizes, and
manual session sheds (live migrations through the placement overlay)
— then asserts the two invariants the resume protocol
promises:

- **zero lost frames**: every session's closing summary accounts for
  every frame the campaign fed, across any number of disconnects,
  worker crashes and migrations;
- **bit-identical event streams**: each session's collected events
  (scores, gestures, flags, order) match an uninterrupted single
  :class:`~repro.serving.MonitorService` run of the same trajectory.

Everything is derived from ``ChaosConfig.seed`` so a failing campaign
reproduces exactly; the seed is embedded in every failure message.
Used by ``tests/serving/test_chaos.py`` (marked ``chaos``, excluded
from the default tier-1 run) but importable from anywhere next to the
root ``conftest.py``.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from repro.errors import ProtocolError, ReproError, WorkerError
from repro.serving import (
    EventStoreReader,
    EventStoreWriter,
    MonitorGateway,
    MonitorService,
    RemoteMonitorClient,
    make_random_walk_trajectory,
)


@dataclasses.dataclass
class ChaosConfig:
    """Knobs for one campaign; everything flows from ``seed``."""

    seed: int = 2020
    n_sessions: int = 64
    n_injections: int = 200
    n_features: int = 10
    n_shards: int = 4
    max_sessions_per_shard: int = 96
    min_frames: int = 24
    max_frames: int = 44
    max_burst: int = 4
    n_clients: int = 8
    max_clients: int = 16
    resume_grace_s: float = 120.0
    resize_range: tuple[int, int] = (2, 5)
    final_drain_timeout_s: float = 180.0
    #: Directory for a durable event log the gateway tees into
    #: (:class:`~repro.serving.EventStoreWriter`), or ``None`` to run
    #: without one.  With a store the campaign additionally asserts the
    #: on-disk log replays **bit-identical** to the per-session event
    #: streams the clients collected, and that every applied resize and
    #: shed left a marker.
    event_store_dir: str | os.PathLike | None = None
    #: Directory for a reproduction bundle, or ``None``.  When set, the
    #: campaign writes a ``seed.txt`` naming the exact env overrides to
    #: replay it *before* any injection lands, and (unless
    #: ``event_store_dir`` says otherwise) keeps the durable log's
    #: segments underneath it — the nightly CI matrix uploads this
    #: directory as the on-failure artifact.
    artifact_dir: str | os.PathLike | None = None

    @classmethod
    def from_env(cls, **overrides) -> "ChaosConfig":
        """Build a config honouring CHAOS_SEED / CHAOS_SESSIONS /
        CHAOS_INJECTIONS / CHAOS_ARTIFACT_DIR environment overrides
        (the CI chaos jobs set CHAOS_SEED per run so failures name a
        reproducible seed)."""
        env = {
            "seed": os.environ.get("CHAOS_SEED"),
            "n_sessions": os.environ.get("CHAOS_SESSIONS"),
            "n_injections": os.environ.get("CHAOS_INJECTIONS"),
        }
        for key, raw in env.items():
            if raw is not None:
                overrides.setdefault(key, int(raw))
        artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
        if artifact_dir:
            overrides.setdefault("artifact_dir", artifact_dir)
        return cls(**overrides)


@dataclasses.dataclass
class ChaosReport:
    """What a campaign did and what it observed."""

    config: ChaosConfig
    injections: dict = dataclasses.field(default_factory=dict)
    feeds: int = 0
    frames_fed: int = 0
    resume_retries: int = 0
    lost_frames: dict = dataclasses.field(default_factory=dict)
    mismatches: dict = dataclasses.field(default_factory=dict)
    failed_sessions: dict = dataclasses.field(default_factory=dict)
    gateway_stats: dict = dataclasses.field(default_factory=dict)
    #: Per-session divergence between the on-disk log's replay and the
    #: client-collected stream (populated only with a store attached).
    store_mismatches: dict = dataclasses.field(default_factory=dict)
    #: ``resize`` markers found in the log vs resizes applied.
    store_resize_markers: int = 0
    #: ``shed`` markers found in the log vs sheds that moved sessions.
    store_shed_markers: int = 0
    store_stats: dict = dataclasses.field(default_factory=dict)

    @property
    def total_injections(self) -> int:
        return sum(self.injections.values())

    def describe(self) -> str:
        """One line naming the seed first — every assertion leads with
        it so a CI failure is reproducible from the log alone."""
        return (
            f"seed={self.config.seed} sessions={self.config.n_sessions} "
            f"injections={self.injections} feeds={self.feeds} "
            f"frames={self.frames_fed} retries={self.resume_retries}"
        )


class _SessionState:
    """Harness-side view of one chaos session."""

    __slots__ = ("sid", "frames", "fed", "client", "resume_state", "events")

    def __init__(self, sid, frames):
        self.sid = sid
        self.frames = frames
        self.fed = 0
        self.client = None  # live owner, or None while detached
        self.resume_state = None
        self.events = []

    @property
    def remaining(self) -> int:
        return self.frames.shape[0] - self.fed


def drain_available(client, timeout_s=0.05):
    """Pull every event already on (or about to hit) the wire without
    committing to a blocking wait — the campaign's steady-state relief
    valve for the gateway's bounded send queues."""
    events = []
    old, client.timeout_s = client.timeout_s, timeout_s
    try:
        while True:
            try:
                events.append(client.next_event())
            except TimeoutError:
                return events
    finally:
        client.timeout_s = old


def reference_streams(monitor, trajectories):
    """The oracle: one uninterrupted MonitorService run per fleet,
    grouped per session.  Ticks are deterministic, so this is the
    bit-exact stream the chaotic run must reassemble."""
    service = MonitorService(
        monitor, max_sessions=max(4, len(trajectories)), backend="reference"
    )
    streams = {}
    for sid, frames in trajectories.items():
        service.open_session(sid)
        service.feed(sid, frames)
        streams[sid] = list(service.drain())
    return streams


def event_key(event):
    return (
        event.session_id,
        event.frame_index,
        event.gesture,
        event.score,
        event.flag,
        event.error,
    )


class ChaosCampaign:
    """One seeded campaign against one gateway.  See the module docs."""

    def __init__(self, monitor, config: ChaosConfig):
        self.monitor = monitor
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.report = ChaosReport(
            config=config,
            injections={
                "disconnect": 0,
                "resume": 0,
                "kill": 0,
                "resize": 0,
                "shed": 0,
            },
        )
        self.sessions: dict[str, _SessionState] = {}
        self.clients: list[RemoteMonitorClient] = []
        self.detached: list[str] = []
        self.reference: dict[str, list] = {}

    # -- plumbing ------------------------------------------------------
    def _new_client(self, runner) -> RemoteMonitorClient:
        client = RemoteMonitorClient(runner.host, runner.port, timeout_s=60.0)
        self.clients.append(client)
        return client

    def _sessions_of(self, client):
        return [s for s in self.sessions.values() if s.client is client]

    def _absorb(self, events):
        for event in events:
            self.sessions[event.session_id].events.append(event)

    def _fed_out(self) -> bool:
        return all(s.remaining == 0 for s in self.sessions.values())

    def _injections_left(self) -> bool:
        return self.report.total_injections < self.config.n_injections

    # -- actions -------------------------------------------------------
    def _act_feed(self):
        candidates = [
            s
            for s in self.sessions.values()
            if s.client is not None and s.remaining > 0
        ]
        if not candidates:
            return
        session = candidates[self.rng.integers(len(candidates))]
        burst = int(self.rng.integers(1, self.config.max_burst + 1))
        chunk = session.frames[session.fed : session.fed + burst]
        session.client.feed(session.sid, chunk)
        session.fed += chunk.shape[0]
        self.report.feeds += 1
        self.report.frames_fed += chunk.shape[0]

    def _act_drain(self):
        if not self.clients:
            return
        client = self.clients[self.rng.integers(len(self.clients))]
        self._absorb(drain_available(client))

    def _act_disconnect(self):
        """Abruptly kill one client connection: no CLOSE handshake, so
        the gateway parks every session it owned; their ResumeStates go
        to the detached pool for a later `resume` injection."""
        owners = [c for c in self.clients if self._sessions_of(c)]
        if not owners:
            return
        client = owners[self.rng.integers(len(owners))]
        client.close()
        self.clients.remove(client)
        for session in self._sessions_of(client):
            session.resume_state = client.detach_session(session.sid)
            session.client = None
            self.detached.append(session.sid)
        self.report.injections["disconnect"] += 1

    def _act_resume(self, runner):
        if not self.detached:
            return
        sid = self.detached.pop(int(self.rng.integers(len(self.detached))))
        session = self.sessions[sid]
        if self.clients and (
            len(self.clients) >= self.config.max_clients
            or self.rng.random() < 0.5
        ):
            client = self.clients[self.rng.integers(len(self.clients))]
        else:
            client = self._new_client(runner)
        attempts = 8
        for attempt in range(attempts):
            try:
                client.resume_session(session.resume_state)
                break
            except (WorkerError, ProtocolError) as exc:
                # Two legitimate transients: the gateway has not yet
                # noticed the old connection's EOF ("no parked session"
                # — we reconnected faster than it parked), or the
                # engine is mid-resize/mid-recovery.  A real client
                # retries with backoff; anything else is a bug the
                # campaign must surface.
                if isinstance(exc, ProtocolError) and (
                    "no parked session" not in str(exc)
                ):
                    raise
                self.report.resume_retries += 1
                if attempt == attempts - 1:
                    self.detached.append(sid)
                    return
                time.sleep(0.05 * (attempt + 1))
                if isinstance(exc, WorkerError):
                    client = self._new_client(runner)
        session.client = client
        session.resume_state = None
        self.report.injections["resume"] += 1

    def _act_kill(self, runner):
        """SIGKILL a live shard worker; with resume enabled the gateway
        must restore each victim session from its record onto a
        surviving shard with no client-visible interruption."""
        gateway = runner.gateway
        service = getattr(gateway._engine, "service", None)
        if service is None or not hasattr(service, "_shards"):
            return
        try:
            alive = [
                (index, handle)
                for index, handle in list(service._shards.items())
                if handle.process.is_alive()
            ]
        except RuntimeError:  # racing a resize on the loop thread
            return
        if len(alive) < 2:
            return  # never orphan the whole fleet
        index, handle = alive[self.rng.integers(len(alive))]
        handle.process.kill()
        handle.process.join(10.0)
        self.report.injections["kill"] += 1
        # Wait for every in-flight transparent recovery to settle so a
        # follow-up kill can't land while restores are in flight.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                busy = any(
                    s.phase == "recovering" for s in list(gateway._sessions.values())
                )
            except RuntimeError:  # racing the loop thread's dict resize
                busy = True
            if not busy:
                return
            time.sleep(0.02)

    def _act_resize(self, runner):
        low, high = self.config.resize_range
        target = int(self.rng.integers(low, high + 1))
        try:
            runner.run(runner.gateway.resize(target), timeout_s=120.0)
        except ReproError:
            return  # e.g. resize to the current K mid-recovery; not an injection
        self.report.injections["resize"] += 1

    def _act_shed(self, runner):
        """Live-migrate one attached session onto a random live shard —
        the gateway's ``shed`` path, fired mid-stream so the placement
        overlay must keep routing follow-up frames to the moved session
        while disconnects, kills and resizes land around it."""
        gateway = runner.gateway
        service = getattr(gateway._engine, "service", None)
        if service is None or not hasattr(service, "_shards"):
            return
        try:
            alive = [
                index
                for index, handle in list(service._shards.items())
                if handle.process.is_alive()
            ]
        except RuntimeError:  # racing a resize on the loop thread
            return
        if len(alive) < 2:
            return  # nowhere to move anything
        attached = [
            s.sid for s in self.sessions.values() if s.client is not None
        ]
        if not attached:
            return
        sid = attached[self.rng.integers(len(attached))]
        target = int(alive[self.rng.integers(len(alive))])
        try:
            moved = runner.run(gateway.shed([sid], target), timeout_s=60.0)
        except ReproError:
            return  # target died or filled mid-call; not an injection
        if moved:
            # Only a shed that actually migrated counts: the session may
            # already live on the target, or may have been parked by a
            # racing disconnect before the call landed.
            self.report.injections["shed"] += 1

    # -- campaign ------------------------------------------------------
    def run(self) -> ChaosReport:
        config = self.config
        if config.artifact_dir is not None:
            # Reproduction bundle: the seed line lands on disk before a
            # single injection fires, so even a hung or crashed campaign
            # leaves enough to replay it; the durable log's segments
            # live underneath the same root unless told otherwise.
            root = os.fspath(config.artifact_dir)
            os.makedirs(root, exist_ok=True)
            if config.event_store_dir is None:
                config.event_store_dir = os.path.join(root, "eventstore")
            with open(
                os.path.join(root, "seed.txt"), "w", encoding="utf-8"
            ) as fh:
                fh.write(
                    f"CHAOS_SEED={config.seed} "
                    f"CHAOS_SESSIONS={config.n_sessions} "
                    f"CHAOS_INJECTIONS={config.n_injections}\n"
                )
        trajectories = {
            f"chaos-{i:03d}": make_random_walk_trajectory(
                int(
                    self.rng.integers(config.min_frames, config.max_frames + 1)
                ),
                n_features=config.n_features,
                seed=config.seed * 1000 + i,
            ).frames
            for i in range(config.n_sessions)
        }
        self.reference = reference_streams(self.monitor, trajectories)

        store = None
        if config.event_store_dir is not None:
            store = EventStoreWriter(config.event_store_dir, fsync="never")
        gateway = MonitorGateway(
            self.monitor,
            n_shards=config.n_shards,
            max_sessions=config.max_sessions_per_shard,
            backend="reference",
            resume_grace_s=config.resume_grace_s,
            heartbeat_interval_s=5.0,
            idle_timeout_s=300.0,
            send_queue_max=8192,
            event_store=store,
        )
        with gateway.serve_in_thread() as runner:
            for i, (sid, frames) in enumerate(trajectories.items()):
                if len(self.clients) < config.n_clients:
                    client = self._new_client(runner)
                else:
                    client = self.clients[i % config.n_clients]
                client.open_session(sid)
                session = _SessionState(sid, frames)
                session.client = client
                self.sessions[sid] = session

            while not (
                self._fed_out()
                and not self.detached
                and not self._injections_left()
            ):
                self._step(runner)

            self._reconcile(runner)
            self.report.gateway_stats = runner.stats()
            self.report.failed_sessions = dict(gateway.failed_sessions)
        if store is not None:
            store.close()
            self.report.store_stats = store.stats()
            self._check_store_parity(config.event_store_dir)
        return self.report

    def _check_store_parity(self, root):
        """Diff the durable log's replay against what clients saw.

        The tee sits past the gateway's duplicate filter, so the log is
        the exactly-once client-visible stream: per session, replaying
        it must be bit-identical (same key tuple per event, same order)
        to the events the campaign collected off the wire — across any
        number of disconnects, crash recoveries and migrations.
        """
        reader = EventStoreReader(root)
        logged: dict[str, list] = {sid: [] for sid in self.sessions}
        for event in reader.replay():
            logged.setdefault(event.session_id, []).append(event)
        for sid, session in self.sessions.items():
            got = [event_key(e) for e in logged.get(sid, [])]
            want = [event_key(e) for e in session.events]
            if got != want:
                self.report.store_mismatches[sid] = _first_divergence(
                    got, want
                )
        markers = list(reader.iter_markers())
        self.report.store_resize_markers = sum(
            1 for m in markers if m.get("type") == "resize"
        )
        self.report.store_shed_markers = sum(
            1 for m in markers if m.get("type") == "shed"
        )

    def _step(self, runner):
        """One weighted-random action.  Feeding dominates so injections
        land on a busy fleet; everything else is a fault or relief."""
        actions, weights = [], []
        if any(
            s.client is not None and s.remaining > 0
            for s in self.sessions.values()
        ):
            actions.append("feed")
            weights.append(6.0)
        actions.append("drain")
        weights.append(2.0)
        if self.detached:
            actions.append("resume")
            weights.append(2.5)
        if self._injections_left():
            if any(self._sessions_of(c) for c in self.clients):
                actions.append("disconnect")
                weights.append(1.2)
            actions.append("kill")
            weights.append(0.3)
            actions.append("resize")
            weights.append(0.5)
            actions.append("shed")
            weights.append(0.5)
        total = sum(weights)
        choice = self.rng.choice(actions, p=[w / total for w in weights])
        if choice == "feed":
            self._act_feed()
        elif choice == "drain":
            self._act_drain()
        elif choice == "disconnect":
            self._act_disconnect()
        elif choice == "resume":
            self._act_resume(runner)
        elif choice == "kill":
            self._act_kill(runner)
        elif choice == "resize":
            self._act_resize(runner)
        elif choice == "shed":
            self._act_shed(runner)

    def _reconcile(self, runner):
        """Collect every outstanding event, close every session, and
        diff against the oracle."""
        config = self.config
        deadline = time.monotonic() + config.final_drain_timeout_s
        while time.monotonic() < deadline:
            for client in list(self.clients):
                self._absorb(drain_available(client))
            if all(
                len(s.events) >= s.frames.shape[0]
                for s in self.sessions.values()
            ):
                break
            time.sleep(0.05)

        for session in self.sessions.values():
            expected = session.frames.shape[0]
            if session.client is None:
                self.report.lost_frames[session.sid] = (
                    f"left detached with {session.fed}/{expected} frames fed"
                )
                continue
            try:
                summary = session.client.close_session(session.sid)
            except ReproError as exc:
                self.report.lost_frames[session.sid] = f"close failed: {exc}"
                continue
            self._absorb(drain_available(session.client))
            if summary["n_frames"] != expected:
                self.report.lost_frames[session.sid] = (
                    f"gateway counted {summary['n_frames']} frames, "
                    f"fed {expected}"
                )

        for sid, session in self.sessions.items():
            got = [event_key(e) for e in session.events]
            want = [event_key(e) for e in self.reference[sid]]
            if got != want:
                self.report.mismatches[sid] = _first_divergence(got, want)

        for client in self.clients:
            client.close()


def _first_divergence(got, want):
    """A compact, log-friendly description of how two streams differ."""
    if len(got) != len(want):
        return f"{len(got)} events vs {len(want)} expected"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"event {i}: got {g}, want {w}"
    return "identical"  # pragma: no cover - only reached on caller bug


def run_campaign(monitor, config: ChaosConfig) -> ChaosReport:
    """Run one seeded campaign end to end; returns its report."""
    return ChaosCampaign(monitor, config).run()
