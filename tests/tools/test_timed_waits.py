"""Every timed wait in ``repro.serving`` is one this list names.

A wait that wakes on a timer instead of on the event it waits for costs
wakeups when idle and latency when busy, and it hides which signal the
code really waits on.  This scan finds each ``time.sleep`` /
``asyncio.sleep`` with a non-zero argument; each ``.poll(…)``,
``.wait(…)``, ``.join(…)`` (a thread's or a process's, not a string's)
and ``.result(…)`` given a timeout; each ``asyncio.wait_for`` with one;
and each timer armed with ``call_later`` / ``call_at``.  It pins the
set to :data:`ALLOWED`, each site with its reason.  A new timed wait
fails here until it is named in the list; a site that goes must leave
the list too.
"""

import ast
from pathlib import Path

import pytest

SERVING = Path(__file__).resolve().parents[2] / "src" / "repro" / "serving"

#: ``(module path under repro/serving, enclosing function) -> reason``.
ALLOWED = {
    ("async_frontend.py", "AsyncShardedMonitor._readable"):
        "the reply deadline: a hung worker answers nothing to wake on",
    ("eventstore.py", "EventStoreWriter.close"):
        "the flusher's join is bounded: a wedged disk must not hang shutdown",
    ("remote/client.py", "AsyncRemoteMonitorClient.connect"):
        "the connect deadline: an unreachable gateway answers nothing",
    ("remote/client.py", "AsyncRemoteMonitorClient._call"):
        "the reply deadline: a request the gateway never answers fails",
    ("remote/gateway.py", "_Connection.aclose"):
        "a writer wedged against a non-reading peer must not wedge the teardown",
    ("remote/gateway.py", "MonitorGateway._close"):
        "drain_timeout_s bounds how long a dead client's backlog holds the engine",
    ("remote/gateway.py", "MonitorGateway._heartbeat_loop"):
        "the heartbeat is a period: a silent client is found by the clock",
    ("remote/gateway.py", "MonitorGateway._park_session"):
        "the resume grace window: an unresumed park lapses by the clock",
    ("remote/gateway.py", "MonitorGateway._restore"):
        "a failed restore retries after a growing backoff",
    ("remote/gateway.py", "GatewayRunner.start"):
        "the startup deadline: a start that never finishes must not hang the caller",
    ("remote/gateway.py", "GatewayRunner.run"):
        "the caller's deadline for a coroutine submitted from sync code",
    ("remote/gateway.py", "GatewayRunner.stop"):
        "the shutdown deadline: a wedged stop must not hang the caller",
    ("remote/gateway.py", "GatewayRunner._stop_loop"):
        "the loop thread's join is bounded: a loop that will not stop is a daemon",
    ("sharded.py", "_ShardHandle.stop"):
        "a worker that ignores the stop handshake is killed after the reply deadline",
    ("transport.py", "recv_message"):
        "the reply deadline: a hung worker answers nothing to wake on",
}


def _is_zero(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_text(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))


def timed_waits(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every timed wait in ``source``."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.scope: list[str] = []

        def _scoped(self, node) -> None:
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

        def visit_Call(self, node: ast.Call) -> None:
            func = node.func
            attribute = isinstance(func, ast.Attribute)
            name = func.attr if attribute else getattr(func, "id", "")
            args = [*node.args, *(k.value for k in node.keywords)]
            if name == "sleep":
                timed = any(not _is_zero(arg) for arg in args)
            elif name in ("poll", "wait", "result") and attribute:
                timed = any(not _is_none(arg) for arg in args)
            elif name == "join" and attribute and not _is_text(func.value):
                timed = any(not _is_none(arg) for arg in args)
            elif name == "wait_for":
                timeout = node.args[1:] + [
                    k.value for k in node.keywords if k.arg == "timeout"
                ]
                timed = any(not _is_none(arg) for arg in timeout)
            else:
                timed = name in ("call_later", "call_at") and attribute
            if timed:
                found.append((".".join(self.scope), node.lineno))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def test_every_timed_wait_in_serving_is_allowed():
    sites = {}
    for path in sorted(SERVING.rglob("*.py")):
        module = path.relative_to(SERVING).as_posix()
        for function, line in timed_waits(path.read_text()):
            sites.setdefault((module, function), []).append(line)
    unlisted = {site: lines for site, lines in sites.items() if site not in ALLOWED}
    assert not unlisted, f"timed waits not in ALLOWED: {unlisted}"
    gone = set(ALLOWED) - set(sites)
    assert not gone, f"ALLOWED names sites with no timed wait left: {gone}"


@pytest.mark.parametrize(
    ("source", "timed"),
    [
        ("time.sleep(0.002)", True),
        ("asyncio.sleep(delay)", True),
        ("sleep(1)", True),
        ("asyncio.sleep(0)", False),
        ("conn.poll(0.002)", True),
        ("conn.poll()", False),
        ("event.wait(timeout=1.0)", True),
        ("event.wait(None)", False),
        ("event.wait()", False),
        ("asyncio.wait_for(task, 5.0)", True),
        ("asyncio.wait_for(task, timeout=deadline)", True),
        ("asyncio.wait_for(task, None)", False),
        ("asyncio.wait_for(task, timeout=None)", False),
        ("thread.join(30.0)", True),
        ("flusher.join(timeout=5.0)", True),
        ("thread.join()", False),
        ('b"".join(parts)', False),
        ('"/".join(names)', False),
        ("future.result(timeout_s)", True),
        ("future.result()", False),
        ("loop.call_later(grace, expire, session)", True),
        ("loop.call_at(when, expire)", True),
        ("loop.call_soon(tick)", False),
    ],
)
def test_the_scan_tells_timed_waits_from_untimed(source, timed):
    assert bool(timed_waits(f"def f():\n    {source}\n")) is timed
