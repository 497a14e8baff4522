"""Every timed wait in ``repro.serving`` is one this list names.

A wait that wakes on a timer instead of on the event it waits for costs
wakeups when idle and latency when busy, and it hides which signal the
code really waits on.  This scan finds each ``time.sleep`` /
``asyncio.sleep`` with a non-zero argument and each ``.poll(…)`` /
``.wait(…)`` given a timeout, and pins the set to :data:`ALLOWED`,
each site with its reason.  A new timed wait fails here until it is
named in the list; a site that goes must leave the list too.
"""

import ast
from pathlib import Path

import pytest

SERVING = Path(__file__).resolve().parents[2] / "src" / "repro" / "serving"

#: ``(module path under repro/serving, enclosing function) -> reason``.
ALLOWED = {
    ("remote/gateway.py", "MonitorGateway._heartbeat_loop"):
        "the heartbeat is a period: a silent client is found by the clock",
    ("remote/gateway.py", "MonitorGateway._restore"):
        "a failed restore retries after a growing backoff",
    ("transport.py", "recv_message"):
        "the reply deadline: a hung worker answers nothing to wake on",
}


def _is_zero(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


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
            elif name in ("poll", "wait") and attribute:
                timed = any(not _is_none(arg) for arg in args)
            else:
                timed = False
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
    ],
)
def test_the_scan_tells_timed_waits_from_untimed(source, timed):
    assert bool(timed_waits(f"def f():\n    {source}\n")) is timed
