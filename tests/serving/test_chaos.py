"""The chaos gate (PR 7): seeded fault-injection campaigns proving the
resume machinery loses nothing.

Each campaign drives a fleet of sessions over a live TCP gateway while
``tests/chaos_harness.py`` randomly kills client connections (followed
by detach/resume on fresh connections), SIGKILLs shard workers,
resizes the fleet mid-stream, and sheds live sessions between shards
through the gateway's ``shed`` migration path — then asserts **zero lost
frames** and **bit-identical per-session event streams** against an
uninterrupted single :class:`~repro.serving.MonitorService` run.

Marked ``chaos`` and excluded from the default tier-1 run (see
``pyproject.toml``); CI runs it in a dedicated job via ``-m chaos``.
Reproduce a failure locally with the seed from the failure message:

    CHAOS_SEED=<seed> PYTHONPATH=src python -m pytest -m chaos -q
"""

import pytest

from chaos_harness import ChaosConfig, run_campaign
from repro.serving import make_synthetic_monitor

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=10, seed=0)


def _assert_clean(report):
    context = report.describe()
    assert report.total_injections >= report.config.n_injections, context
    assert not report.lost_frames, f"{context} lost={report.lost_frames}"
    assert not report.mismatches, f"{context} diverged={report.mismatches}"
    assert not report.failed_sessions, (
        f"{context} failed={report.failed_sessions}"
    )
    resume = report.gateway_stats["resume"]
    assert resume["expired_total"] == 0, f"{context} resume={resume}"
    assert resume["parked"] == 0, f"{context} resume={resume}"
    if report.config.event_store_dir is not None:
        _assert_store_parity(report, context)


def _assert_store_parity(report, context):
    """The durable-log half of the gate: the on-disk event log replays
    bit-identical to what clients saw, nothing was dropped by the
    writer's bounded ring, and every applied resize and shed left a
    marker."""
    assert not report.store_mismatches, (
        f"{context} store diverged={report.store_mismatches}"
    )
    assert report.store_stats.get("dropped", -1) == 0, (
        f"{context} store={report.store_stats}"
    )
    assert report.store_resize_markers == report.injections["resize"], (
        f"{context} markers={report.store_resize_markers} "
        f"store={report.store_stats}"
    )
    assert report.store_shed_markers == report.injections["shed"], (
        f"{context} shed markers={report.store_shed_markers} "
        f"store={report.store_stats}"
    )


def test_chaos_campaign_smoke(monitor, tmp_path):
    """A small fast campaign — the harness itself must hold up before
    the full gate is worth running."""
    report = run_campaign(
        monitor,
        ChaosConfig(
            seed=11,
            n_sessions=8,
            n_injections=25,
            n_clients=3,
            event_store_dir=tmp_path / "log",
        ),
    )
    _assert_clean(report)
    assert report.injections["disconnect"] > 0, report.describe()


def test_chaos_campaign_full(monitor, tmp_path):
    """The acceptance gate: >= 200 random injections under 64-session
    load, zero lost frames, bit-identical event streams — on the wire
    and replayed from the durable on-disk log alike."""
    config = ChaosConfig.from_env()
    if config.artifact_dir is None:
        # No reproduction bundle requested: keep the durable log in the
        # test's tmp dir.  With CHAOS_ARTIFACT_DIR set (nightly CI) the
        # harness parks the log under the bundle so a failure uploads
        # its segments alongside seed.txt.
        config.event_store_dir = tmp_path / "log"
    print(f"chaos campaign: seed={config.seed} "
          f"sessions={config.n_sessions} injections={config.n_injections}")
    report = run_campaign(monitor, config)
    print(f"chaos campaign done: {report.describe()}")
    _assert_clean(report)
    assert report.injections["disconnect"] >= 10, report.describe()
    assert report.injections["resume"] >= 10, report.describe()
    assert report.injections["kill"] >= 1, report.describe()
    assert report.injections["resize"] >= 1, report.describe()
    assert report.injections["shed"] >= 1, report.describe()
