"""The autoscaling actuator: apply ``suggest_shard_count`` to a live fleet.

:func:`~repro.serving.sharded.suggest_shard_count` has always been the
*policy* half of autoscaling — a pure function turning a
``shard_stats()`` snapshot into a recommended shard count.
:class:`MonitorAutoscaler` is the *actuator* half: a background loop
over an :class:`~repro.serving.async_frontend.AsyncShardedMonitor` that
polls the fleet's per-shard tick latency, runs the policy, and applies
the recommendation through :meth:`AsyncShardedMonitor.resize` — live
session migration, no fleet rebuild, no dropped frame.

Two layers of hysteresis keep the fleet from thrashing:

- the policy's own watermark band (scale down only so far that the
  projected load cannot immediately trigger the next scale-up), and
- the actuator's: a recommendation must repeat for ``consecutive``
  evaluations before it is applied, and at least ``cooldown_s`` must
  have passed since the previous applied resize.

Every applied resize is recorded in :attr:`MonitorAutoscaler.resize_events`
(and reported through ``on_resize``, which is how the remote gateway
makes resizes visible to STATS clients — see
:meth:`repro.serving.remote.MonitorGateway.gateway_stats`).

The autoscaler is the *capacity* level of a two-level controller; the
*skew* level — :class:`~repro.serving.balancer.MonitorBalancer`, which
sheds sessions off hot shards — attaches through
:attr:`MonitorAutoscaler.balancer` so the two never actuate against
each other (shed in flight defers a pending resize; an applied resize
resets the balancer's hysteresis).
"""

from __future__ import annotations

import asyncio
import logging
from collections.abc import Callable
from typing import TypeVar

from ..errors import ConfigurationError, ReproError
from .async_frontend import AsyncShardedMonitor
from .service import ServiceStats
from .sharded import FRAME_INTERVAL_MS, suggest_shard_count

logger = logging.getLogger(__name__)

_C = TypeVar("_C", bound="_ControlLoop")


class _ControlLoop:
    """Hysteresis and loop lifecycle shared by the fleet's two controllers.

    :class:`MonitorAutoscaler` and
    :class:`~repro.serving.balancer.MonitorBalancer` differ in policy —
    what they observe, what they actuate — but gate it identically: a
    recommendation must repeat for ``consecutive`` evaluations (the
    *streak*), at least ``cooldown_s`` must have passed since the last
    applied action, and a background task re-runs :meth:`step` every
    ``interval_s``.  Subclasses implement :meth:`step`.
    """

    def __init__(
        self, interval_s: float, consecutive: int, cooldown_s: float
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError("interval_s must be > 0")
        if consecutive < 1:
            raise ConfigurationError("consecutive must be >= 1")
        if cooldown_s < 0:
            raise ConfigurationError("cooldown_s must be >= 0")
        self.interval_s = float(interval_s)
        self.consecutive = int(consecutive)
        self.cooldown_s = float(cooldown_s)
        #: What the current streak agrees on (a target shard count, a
        #: hot shard index); ``None`` while there is no streak.
        self._streak_key: int | None = None
        self._streak = 0
        self._last_applied: float | None = None
        self._task: asyncio.Task | None = None
        self._closed = False

    def _reset_streak(self) -> None:
        self._streak_key = None
        self._streak = 0

    def _streak_reached(self, key: int) -> bool:
        """Count one evaluation recommending ``key``; True once
        ``consecutive`` evaluations in a row have agreed on it."""
        if key != self._streak_key:
            self._streak_key = key
            self._streak = 1
        else:
            self._streak += 1
        return self._streak >= self.consecutive

    def _cooling_down(self) -> bool:
        return (
            self._last_applied is not None
            and asyncio.get_running_loop().time() - self._last_applied
            < self.cooldown_s
        )

    def _mark_applied(self) -> float:
        """An action was applied: start the cooldown, void the streak."""
        self._last_applied = asyncio.get_running_loop().time()
        self._reset_streak()
        return self._last_applied

    async def step(self):
        """Run one evaluation (subclass policy)."""
        raise NotImplementedError

    async def start(self) -> None:
        """Spawn the background polling loop (idempotent)."""
        if self._task is None and not self._closed:
            self._task = asyncio.create_task(
                self._loop(), name=type(self).__name__
            )

    async def _loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self.interval_s)
            if self._closed:
                return
            try:
                await self.step()
            except ReproError:
                # A crash mid-action fails its sessions safe through the
                # fleet's own paths; a capacity rejection leaves the
                # fleet serving.  Either way the next poll re-evaluates.
                continue

    async def stop(self) -> None:
        """End the polling loop.  Idempotent; :meth:`step` keeps working."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass  # the expected outcome of cancel()
            except Exception as exc:  # noqa: BLE001 - a dead loop must not
                # abort the caller's shutdown path, but the error it died
                # with is still worth the log line.
                logger.warning(
                    "%s loop ended with error: %s", type(self).__name__, exc
                )
            self._task = None

    async def __aenter__(self: _C) -> _C:
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()


class MonitorAutoscaler(_ControlLoop):
    """Poll a fleet's stats and live-resize it under hysteresis.

    Parameters
    ----------
    frontend:
        The :class:`AsyncShardedMonitor` to observe and resize.
    interval_s:
        Polling cadence of the background loop (:meth:`start`).
    min_shards / max_shards:
        Clamp passed through to :func:`suggest_shard_count` (and the
        bounds any applied resize respects).
    consecutive:
        How many consecutive evaluations must agree on the *same*
        target (different from the current count) before it is applied.
    cooldown_s:
        Minimum seconds between two applied resizes.
    frame_interval_ms / high_watermark / low_watermark:
        The policy's deadline and watermark band (see
        :func:`suggest_shard_count`).
    on_resize:
        Optional callback invoked with each applied resize's summary
        dict (the :meth:`ShardedMonitorService.resize` return value plus
        ``"trigger": "autoscaler"``).

    Use :meth:`step` directly for a deterministic, externally-driven
    evaluation (tests, cron-style operators), or :meth:`start` /
    :meth:`stop` for the self-driving loop.
    """

    def __init__(
        self,
        frontend: AsyncShardedMonitor,
        *,
        interval_s: float = 5.0,
        min_shards: int = 1,
        max_shards: int = 8,
        consecutive: int = 2,
        cooldown_s: float = 30.0,
        frame_interval_ms: float = FRAME_INTERVAL_MS,
        high_watermark: float = 0.5,
        low_watermark: float = 0.1,
        on_resize: Callable[[dict], None] | None = None,
    ) -> None:
        super().__init__(interval_s, consecutive, cooldown_s)
        if max_shards < min_shards:
            raise ConfigurationError("max_shards must be >= min_shards")
        self._frontend = frontend
        self.min_shards = int(min_shards)
        self.max_shards = int(max_shards)
        self.frame_interval_ms = float(frame_interval_ms)
        self.high_watermark = float(high_watermark)
        self.low_watermark = float(low_watermark)
        self._on_resize = on_resize
        #: The skew half of the two-level controller, when one is
        #: attached (set by whoever wires the fleet together — see
        #: ``MonitorGateway.start``).  A shed in flight defers a
        #: pending resize, and every applied resize resets the
        #: balancer's hysteresis via
        #: :meth:`~repro.serving.balancer.MonitorBalancer.notify_resize`
        #: — the coupling that keeps resize-for-capacity and
        #: shed-for-skew from fighting over the same stale window.
        self.balancer = None
        #: Applied resizes, oldest first (summary dicts).
        self.resize_events: list[dict] = []

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Current live shard count of the observed fleet."""
        return self._frontend.n_shards

    async def step(
        self, shard_stats: dict[int, ServiceStats] | None = None
    ) -> int | None:
        """Run one evaluation; apply the resize if hysteresis allows.

        ``shard_stats`` overrides the fleet poll (deterministic tests /
        external metric pipelines).  Returns the applied target shard
        count, or ``None`` when nothing was applied — in band, streak
        not yet long enough, or still cooling down.
        """
        if shard_stats is None:
            shard_stats = await self._frontend.shard_stats()
        current = self._frontend.n_shards
        # Clamp the raw recommendation ourselves so clamping can never
        # invert its direction: a fleet already *above* max_shards whose
        # load asks for MORE capacity must be held, not shrunk to the
        # cap while overloaded.
        raw = suggest_shard_count(
            shard_stats,
            frame_interval_ms=self.frame_interval_ms,
            high_watermark=self.high_watermark,
            low_watermark=self.low_watermark,
            min_shards=self.min_shards,
            max_shards=None,
        )
        target = min(raw, self.max_shards)
        if target == current or (raw > current and target < current):
            self._reset_streak()
            return None
        if not self._streak_reached(target) or self._cooling_down():
            return None
        if self.balancer is not None and self.balancer.shed_in_progress:
            # A shed is mid-migration: applying a resize now would
            # re-place sessions the balancer is moving this instant.
            # Defer — the streak survives, so the resize applies on the
            # next evaluation once the shed has landed.
            return None
        summary = await self._frontend.resize(target)
        self._mark_applied()
        event = dict(summary, trigger="autoscaler")
        self.resize_events.append(event)
        if self.balancer is not None:
            self.balancer.notify_resize(event)
        if self._on_resize is not None:
            self._on_resize(event)
        return target
