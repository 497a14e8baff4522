"""Fixtures shared by the serving tests."""

import pytest

from repro.kinematics.windows import StreamingWindowBatch
from repro.serving import MonitorService


@pytest.fixture
def fail_inside_step(monkeypatch):
    """Arm a fault inside the engine step (``MonitorService.advance``).

    ``arm(exc_type, after, session_id="doomed", when=None)`` makes every
    service — in this process and in the workers it forks afterwards —
    raise ``exc_type("injected tick failure")`` from the frame-ring push
    of the tick that would serve ``session_id`` its frame ``after``: the
    step's earlier ticks have run by then, so a round fails part-way
    through.  ``when()``, if given, is asked each time the fault would
    fire and lets it pass by returning False.
    """

    def arm(exc_type, after, session_id="doomed", when=None):
        real_advance, real_push = MonitorService.advance, StreamingWindowBatch.push
        target = {}

        def advance(self, n=1):
            session = self._sessions.get(session_id)
            target["ring"] = self._ring
            target["slot"] = None if session is None else session.slot
            return real_advance(self, n)

        def push(self, frames, stream_ids=None):
            slot = target.get("slot")
            if (
                slot is not None
                and self is target.get("ring")
                and slot in stream_ids.tolist()
                and self.frames_seen[slot] >= after
                and (when is None or when())
            ):
                raise exc_type("injected tick failure")
            return real_push(self, frames, stream_ids)

        monkeypatch.setattr(MonitorService, "advance", advance)
        monkeypatch.setattr(StreamingWindowBatch, "push", push)

    return arm


@pytest.fixture
def crowded_pair():
    """Two session ids on different shards of the 2-shard hash ring that
    both land on shard 2 of the 3-shard ring, in opening order.

    On a K=2 fleet with one slot per shard, a resize to 3 moves the
    first onto the new shard 2 and then finds it full for the second:
    the reshape is refused part-way.
    """
    from repro.serving.sharded import _HashRing

    two, three = _HashRing(), _HashRing()
    for index in range(3):
        three.add(index)
        if index < 2:
            two.add(index)
    ids = [f"s{i}" for i in range(100) if three.place(f"s{i}") == 2]
    first = ids[0]
    return first, next(s for s in ids if two.place(s) != two.place(first))
