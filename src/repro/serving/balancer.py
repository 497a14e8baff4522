"""Load-aware placement: shed sessions off hot shards, continuously.

The consistent-hash ring is deliberately load-blind — placement by id
hash keeps routing stateless and resize migrations minimal — but it
means an unlucky key distribution (or a few unusually heavy sessions)
can pile work onto one shard while its neighbors idle.  The hot shard's
tick latency — and with it every one of its sessions' alert latency —
climbs toward the frame deadline long before the *fleet-wide* load
would justify adding capacity.  That skew is exactly the tail-latency
failure mode a real-time monitor cannot afford: resize fixes "too much
total load", not "the load is in the wrong place".

This module is the second control level that fixes the skew:

- :func:`plan_sheds` is the pure *policy* — a function from a
  ``(shard_stats, occupancy)`` snapshot to either one bounded move
  ("take ``n_sessions`` off shard ``hot``, land them on ``cold``") or
  ``None`` when the fleet is in band.  Like
  :func:`~repro.serving.sharded.suggest_shard_count` it owns no I/O and
  is trivially unit-testable.
- :class:`MonitorBalancer` is the *actuator*: a background loop over an
  :class:`~repro.serving.async_frontend.AsyncShardedMonitor` that polls
  per-shard p99 tick latency and occupancy, runs the policy under
  hysteresis (consecutive agreement on the same hot shard, a cooldown
  between applied sheds, a per-cycle migration budget, and per-session
  flap suppression), and applies the move through
  :meth:`AsyncShardedMonitor.shed` — the export→import migration path,
  so event streams stay bit-identical to an unbalanced run.

Together with :class:`~repro.serving.autoscaler.MonitorAutoscaler` this
forms a two-level controller — **resize for capacity, shed for skew** —
and the two levels are explicitly coupled so they never fight: the
autoscaler defers an apply while a shed is mid-flight
(:attr:`MonitorBalancer.shed_in_progress`), and an applied resize calls
:meth:`MonitorBalancer.notify_resize`, which resets the balancer's
hot-streak and starts its cooldown (post-resize stats describe a
topology that no longer exists; re-observe before moving anything).
"""

from __future__ import annotations

import asyncio
import logging
from collections.abc import Callable
from dataclasses import dataclass

from ..errors import ConfigurationError
from .async_frontend import AsyncShardedMonitor
from .autoscaler import _ControlLoop
from .service import ServiceStats

logger = logging.getLogger(__name__)

__all__ = ["MonitorBalancer", "ShedPlan", "plan_sheds"]


@dataclass(frozen=True)
class ShedPlan:
    """One bounded rebalancing move recommended by :func:`plan_sheds`.

    ``hot``/``cold`` are shard indices, ``n_sessions`` how many sessions
    to move (already clamped to the migration budget, the cold shard's
    free capacity, and half the occupancy gap), and the two p99 figures
    are the evidence the decision was made on — they travel into the
    shed event so STATS clients and the durable log can audit it.
    """

    hot: int
    cold: int
    n_sessions: int
    p99_max_ms: float
    p99_median_ms: float


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def plan_sheds(
    shard_stats: dict[int, ServiceStats],
    occupancy: dict[int, int],
    *,
    skew_ratio: float = 1.5,
    min_p99_ms: float = 1.0,
    max_moves: int = 8,
    max_sessions_per_shard: int | None = None,
) -> ShedPlan | None:
    """Decide whether — and how much — to shed, from one fleet snapshot.

    The policy half of load-aware placement (no I/O; the actuator is
    :class:`MonitorBalancer`).  A shard is *hot* when its p99 tick
    latency exceeds ``skew_ratio`` times the fleet median — a relative
    trigger, so a uniformly loaded fleet near its deadline asks for a
    **resize** (capacity), never a shed (which cannot help).  Latencies
    below ``min_p99_ms`` are treated as noise: on an idle fleet the p99
    ratio between shards is meaningless.

    The move size is occupancy-driven: tick cost scales with resident
    sessions, so the plan moves half the occupancy gap between the hot
    shard and the least-occupied shard, clamped by ``max_moves`` (the
    per-cycle migration budget — each move is an export→import pipe
    exchange that briefly pauses the fleet) and by the cold shard's
    free slots when ``max_sessions_per_shard`` is given.  A hot shard
    whose occupancy is already within one session of the coldest yields
    ``None``: migration cannot improve a fleet that is
    occupancy-balanced, and the guard is what makes repeated
    plan→shed→plan cycles converge even while the latency window still
    remembers the old skew.

    Returns a :class:`ShedPlan` or ``None`` when the fleet is in band.
    """
    if skew_ratio < 1.0:
        raise ConfigurationError("skew_ratio must be >= 1.0")
    if max_moves < 1:
        raise ConfigurationError("max_moves must be >= 1")
    shards = [index for index in shard_stats if index in occupancy]
    if len(shards) < 2:
        return None
    p99 = {index: shard_stats[index].percentile_ms(99.0) for index in shards}
    hot = max(shards, key=lambda index: (p99[index], occupancy[index]))
    median = _median(list(p99.values()))
    if p99[hot] < min_p99_ms:
        return None
    if p99[hot] <= skew_ratio * max(median, 1e-12):
        return None
    cold = min(shards, key=lambda index: (occupancy[index], p99[index], index))
    if cold == hot:
        return None
    gap = occupancy[hot] - occupancy[cold]
    if gap <= 1:
        return None  # occupancy-balanced: a move cannot reduce the skew
    n_sessions = min(max_moves, gap // 2)
    if max_sessions_per_shard is not None:
        n_sessions = min(n_sessions, max_sessions_per_shard - occupancy[cold])
    if n_sessions < 1:
        return None
    return ShedPlan(
        hot=hot,
        cold=cold,
        n_sessions=n_sessions,
        p99_max_ms=p99[hot],
        p99_median_ms=median,
    )


class MonitorBalancer(_ControlLoop):
    """Poll a fleet's skew and live-shed sessions under hysteresis.

    Parameters
    ----------
    frontend:
        The :class:`AsyncShardedMonitor` to observe and rebalance.
    interval_s:
        Polling cadence of the background loop (:meth:`start`).
    skew_ratio / min_p99_ms:
        The policy's trigger band (see :func:`plan_sheds`).
    max_moves:
        Per-cycle migration budget passed to the policy — an applied
        shed never moves more than this many sessions at once.
    consecutive:
        How many consecutive evaluations must name the *same* hot shard
        before a plan is applied.
    cooldown_s:
        Minimum seconds between two applied sheds — and after a resize
        (:meth:`notify_resize`), so the two controller levels never
        actuate back to back on the same stale window.
    flap_suppress_s:
        A session that was just shed is immune from being shed again
        for this long, so two shards cannot ping-pong the same victims.
    on_shed:
        Optional callback invoked with each applied shed's summary dict
        (how the remote gateway surfaces placement changes in STATS and
        tees ``shed`` markers into the durable event log).

    Use :meth:`step` directly for deterministic, externally-driven
    evaluation (tests, cron-style operators), or :meth:`start` /
    :meth:`stop` for the self-driving loop.
    """

    def __init__(
        self,
        frontend: AsyncShardedMonitor,
        *,
        interval_s: float = 2.0,
        skew_ratio: float = 1.5,
        min_p99_ms: float = 1.0,
        max_moves: int = 8,
        consecutive: int = 2,
        cooldown_s: float = 10.0,
        flap_suppress_s: float = 60.0,
        on_shed: Callable[[dict], None] | None = None,
    ) -> None:
        super().__init__(interval_s, consecutive, cooldown_s)
        if skew_ratio < 1.0:
            raise ConfigurationError("skew_ratio must be >= 1.0")
        if max_moves < 1:
            raise ConfigurationError("max_moves must be >= 1")
        if flap_suppress_s < 0:
            raise ConfigurationError("flap_suppress_s must be >= 0")
        self._frontend = frontend
        self.skew_ratio = float(skew_ratio)
        self.min_p99_ms = float(min_p99_ms)
        self.max_moves = int(max_moves)
        self.flap_suppress_s = float(flap_suppress_s)
        self._on_shed = on_shed
        #: Applied sheds, oldest first (summary dicts).
        self.shed_events: list[dict] = []
        self._recently_shed: dict[str, float] = {}
        self._shedding = False

    # ------------------------------------------------------------------
    @property
    def _streak_shard(self) -> int | None:
        """The hot shard the current streak agrees on."""
        return self._streak_key

    @_streak_shard.setter
    def _streak_shard(self, shard: int | None) -> None:
        self._streak_key = shard

    @property
    def shed_in_progress(self) -> bool:
        """True while a shed is actively migrating sessions.

        The autoscaler checks this immediately before applying a resize
        and defers if set — the one direction of the two-level coupling
        the balancer owns (the other is :meth:`notify_resize`).
        """
        return self._shedding

    def notify_resize(self, summary: dict | None = None) -> None:
        """A resize was applied: reset hysteresis, start the cooldown.

        Called by :class:`~repro.serving.autoscaler.MonitorAutoscaler`
        (and the gateway's manual resize path).  Post-resize stats
        describe shards that may no longer exist and sessions that just
        moved; the hot-streak built on them is void, and the cooldown
        gives the new topology a full observation window before the
        balancer considers moving anything.
        """
        self._reset_streak()
        try:
            self._last_applied = asyncio.get_running_loop().time()
        except RuntimeError:  # outside a loop (sync tests): skip cooldown
            self._last_applied = None
        if summary:
            logger.debug("balancer hysteresis reset by resize: %s", summary)

    async def step(
        self,
        shard_stats: dict[int, ServiceStats] | None = None,
        occupancy: dict[int, int] | None = None,
    ) -> dict | None:
        """Run one evaluation; apply the shed if hysteresis allows.

        ``shard_stats`` / ``occupancy`` override the fleet poll
        (deterministic tests / external metric pipelines).  Returns the
        applied shed's summary dict, or ``None`` when nothing was
        applied — in band, streak not yet long enough, cooling down, or
        every candidate victim still flap-suppressed.
        """
        if shard_stats is None:
            shard_stats = await self._frontend.shard_stats()
        if occupancy is None:
            occupancy = self._frontend.shard_occupancy()
        plan = plan_sheds(
            shard_stats,
            occupancy,
            skew_ratio=self.skew_ratio,
            min_p99_ms=self.min_p99_ms,
            max_moves=self.max_moves,
            max_sessions_per_shard=getattr(
                self._frontend.service, "max_sessions_per_shard", None
            ),
        )
        if plan is None:
            self._reset_streak()
            return None
        if not self._streak_reached(plan.hot) or self._cooling_down():
            return None
        victims = self._pick_victims(plan, asyncio.get_running_loop().time())
        if not victims:
            return None
        self._shedding = True
        try:
            moved = await self._frontend.shed(victims, plan.cold)
        finally:
            self._shedding = False
        now = self._mark_applied()
        if not moved:
            return None  # every victim closed/failed under our feet
        for session_id in moved:
            self._recently_shed[session_id] = now
        summary = {
            "from": plan.hot,
            "to": plan.cold,
            "sessions": sorted(moved),
            "n": len(moved),
            "p99_max_ms": round(plan.p99_max_ms, 3),
            "p99_median_ms": round(plan.p99_median_ms, 3),
            "trigger": "balancer",
        }
        self.shed_events.append(summary)
        if self._on_shed is not None:
            self._on_shed(summary)
        return summary

    def _pick_victims(self, plan: ShedPlan, now: float) -> list[str]:
        """Select which of the hot shard's sessions the plan moves.

        Flap suppression is applied here: a session shed within the last
        ``flap_suppress_s`` seconds is skipped, so oscillating load
        cannot bounce the same sessions back and forth (the suppression
        map is pruned on the same pass).  Victims are taken in opening
        order — deterministic, so a failure names a reproducible set.
        """
        for session_id, when in list(self._recently_shed.items()):
            if now - when >= self.flap_suppress_s:
                del self._recently_shed[session_id]
        candidates = [
            session_id
            for session_id in self._frontend.sessions_on(plan.hot)
            if session_id not in self._recently_shed
        ]
        return candidates[: plan.n_sessions]
