"""Self-tests of the benchmark harness, at ``--smoke`` scale.

They check the instrument, not the program: every named metric is
emitted with its unit for every workload, inputs follow the seed, the
stage waterfall adds up, the oracle check catches a corrupted stream, a
breached latency limit is reported without failing the outputs, slices
combine as documented, ``compare.py`` applies the bounds, and a killed
run leaves nothing behind.
Smoke numbers are never recorded anywhere.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import compare, harness, oracle, workloads  # noqa: E402
from bench.metrics import (  # noqa: E402
    BOUNDS, END_TO_END, END_TO_END_NAMES, PER_LAYER, PER_LAYER_NAMES, UNITS,
)
from bench.trace import TABLE, Tracer  # noqa: E402

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the benchmark refuses below 2 cores"
)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One traced smoke run per workload: the full document plus the
    contract line (a traced run carries both kinds of metric)."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    lines = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            RUN + ["--workload", workload, "--seed", "3", "--smoke", "--trace", "1",
                   "--json", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as fh:
        runs = {run["workload"]: run for run in json.load(fh)["runs"]}
    return runs, lines


def test_every_metric_is_emitted_with_unit_and_workload(smoke_runs):
    runs, lines = smoke_runs
    assert set(runs) == set(workloads.WORKLOADS)
    for workload, run in runs.items():
        assert run["workload"] == workload
        for name in END_TO_END_NAMES + PER_LAYER_NAMES:
            assert name in run["metrics"], (workload, name)
            assert run["metrics"][name]["unit"] == UNITS[name]
        for name in END_TO_END_NAMES:
            assert run["metrics"][name]["value"] > 0, (workload, name)
        line = lines[workload]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(PER_LAYER_NAMES)
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert run["failed_share"] == 0.0
        assert "overhead_share" in "".join(line["metrics"])
        assert {"echo_p50_ms", "echo_p99_ms", "gemm_ms", "noisy"} <= set(run["meta"]["noise"])
        assert run["meta"]["program_args"]


def test_names_and_units_fit_the_contract():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for metric in END_TO_END + PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric.unit
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
    assert max(m.bound for m in END_TO_END) == dict((m.name, m.bound) for m in END_TO_END)["setup_s"]
    for workload, why in workloads.WORKLOADS.items():
        assert NAME.match(workload) and len(why) <= 200 and "\n" not in why


def test_benchmark_json_repeats_the_metric_dictionary():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert doc["run_seconds"] == workloads.DEFAULT_SECONDS
    assert doc["workloads"] == [{"name": n, "why": w} for n, w in workloads.WORKLOADS.items()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_stage_means_sum_to_the_traced_alert_latency(smoke_runs):
    runs, _ = smoke_runs
    metrics = runs["rt30_wire"]["metrics"]
    assert abs(metrics["stage.sum_over_e2e"]["value"] - 1.0) <= 0.01
    stages = sum(
        v["value"] for k, v in metrics.items() if k.startswith("stage.") and k.endswith("_mean_ms")
    )
    assert stages > 0
    for workload in ("sat_wire_k2", "tick_paper", "bulk_paper"):  # not exercised there
        assert runs[workload]["metrics"]["stage.sum_over_e2e"]["value"] == 0.0


def test_same_seed_same_inputs_other_seed_other_inputs(smoke_runs):
    runs, _ = smoke_runs
    for workload in ("rt30_wire", "bulk_paper"):
        a = harness.input_hash(workloads.make_inputs(workload, 3, smoke=True))
        b = harness.input_hash(workloads.make_inputs(workload, 3, smoke=True))
        c = harness.input_hash(workloads.make_inputs(workload, 4, smoke=True))
        assert a == b != c
        assert runs[workload]["meta"]["input_hash"] == a


def test_a_corrupted_stream_fails_the_oracle_check():
    from dataclasses import replace

    from repro.serving import MonitorService, make_synthetic_monitor

    monitor = make_synthetic_monitor(**workloads.MODEL_DEFAULT)
    frames = workloads.make_inputs("rt30_wire", 1)[0][:40]
    expected = oracle.oracle_streams(monitor, {"s": frames})["s"]
    service = MonitorService(monitor, max_sessions=1)
    service.open_session("s", record_timeline=False)
    service.feed("s", frames)
    events = service.drain()
    assert oracle.count_failed(expected, events) == 0

    flipped = list(events)
    bits = np.float64(events[20].score).view(np.int64) ^ 1  # lowest mantissa bit
    flipped[20] = replace(events[20], score=float(np.int64(bits).view(np.float64)))
    assert oracle.count_failed(expected, flipped) == 1
    assert oracle.count_failed(expected, flipped, atol=1e-6) == 0
    assert oracle.count_failed(expected, events[:7] + events[8:]) == 1  # dropped frame
    errored = list(events)
    errored[5] = replace(events[5], error="shard 0 worker died", flag=True)
    assert oracle.count_failed(expected, errored) == 1
    assert oracle.count_failed(expected, events[:-3]) == 3  # never arrived
    swapped = list(events)
    swapped[10], swapped[11] = swapped[11], swapped[10]
    assert oracle.count_failed(expected, swapped) == 1  # out of order
    # ... and counts in failed_share: failed / attempted, as run.py prints it.
    assert oracle.count_failed(expected, errored) / len(frames) == pytest.approx(1 / 40)


def test_a_round_over_the_latency_limit_is_reported_not_failed():
    """The box can breach the rt30_wire limit; ``correct`` speaks of outputs."""
    seg = harness.Segment(window_s=5.0, frames=2400, sut_cpu_s=2.4,
                          latencies_ms=np.full(2400, 2.0 * workloads.RT30_LIMIT_MS))
    workloads._check_rt30_limits(seg)
    assert seg.over_limit and "p90" in seg.over_limit
    creeping = harness.Segment(latencies_ms=np.linspace(1.0, 30.0, 2400))
    workloads._check_rt30_limits(creeping)
    assert creeping.over_limit and "backlog" in creeping.over_limit
    setup = {"total_s": 1.0, "build_s": 0.1, "start_s": 0.5, "open_s": 0.2, "warmup_s": 0.2}
    rounds = [workloads.Round(setup, seg, 100.0, 2400, 0, [], over_limit=seg.over_limit)] * 3
    outcome = workloads.combine("rt30_wire", rounds, [np.zeros(3)], {})
    assert outcome.failed == 0 and outcome.attempted == 7200 and outcome.over_limit_rounds == 3


def test_the_least_disturbed_slice_sets_the_time_based_numbers():
    # Slices of 0.5 s from t=10: medians 1, 5, 2; the partial fourth is left out.
    times = [10.1, 10.2, 10.3, 10.6, 10.9, 11.1, 11.4, 11.6]
    values = [1.0, 1.0, 9.0, 5.0, 5.0, 2.0, 2.0, 0.1]
    assert harness.slice_medians(times, values, 10.0, 0.5) == [1.0, 5.0, 2.0]
    assert harness.slice_medians([], [], 10.0, 0.5) == []
    seg = harness.Segment(window_s=2.0, frames=300, sut_cpu_s=1.5, latencies_ms=np.array([4.0]),
                          units=[(100, 0.5, 0.40), (100, 1.0, 0.45), (100, 0.5, 0.65)],
                          slice_p50_ms=[3.0, 9.0, 4.0])
    numbers = workloads._round_numbers(workloads.Round({"total_s": 1.0}, seg, 50.0))
    assert numbers["alert_p50_ms"] == 3.0 and numbers["frames_per_s"] == 200.0
    assert numbers["cpu_us_per_frame"] == pytest.approx(4000.0)
    whole = harness.Segment(window_s=2.0, frames=300, sut_cpu_s=1.5, latencies_ms=np.array([4.0]))
    numbers = workloads._round_numbers(workloads.Round({"total_s": 1.0}, whole, 50.0))
    assert numbers == {"alert_p50_ms": 4.0, "frames_per_s": 150.0, "cpu_us_per_frame": 5000.0,
                       "setup_s": 1.0, "peak_rss_mb": 50.0}


def test_tracer_wraps_the_whole_table_and_restores_it():
    import importlib

    from repro.serving.remote import gateway, protocol

    originals = {}
    for entry in TABLE:
        module = importlib.import_module(entry.module)
        owner = getattr(module, entry.owner) if entry.owner else module
        originals[entry.name] = owner.__dict__[entry.attr]
    tracer = Tracer()
    tracer.install()
    try:
        # The gateway did ``from .protocol import decode_frames``: rebound too.
        assert gateway.decode_frames is protocol.decode_frames is not originals["protocol.decode_frames"]
        payload = protocol.encode_frames("s", np.zeros((2, 3)), seq=5)
        assert protocol.decode_frames(payload)[1] == 5
    finally:
        tracer.uninstall()
    for entry in TABLE:
        module = importlib.import_module(entry.module)
        owner = getattr(module, entry.owner) if entry.owner else module
        assert owner.__dict__[entry.attr] is originals[entry.name]
    assert gateway.decode_frames is originals["protocol.decode_frames"]
    assert tracer.calls("protocol.decode_frames") == 1
    assert tracer.spans[-1][5] == ("s", 5)  # request id = (session, first frame)


def _doc(path, workload, values, failed_share=0.0, noisy=False):
    runs = [
        {"workload": workload, "trace": 0, "failed_share": failed_share,
         "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in run.items()},
         "meta": {"noise": {"noisy": noisy}}}
        for run in values
    ]
    path.write_text(json.dumps({"schema": 1, "runs": runs}))
    return str(path)


def test_compare_applies_each_metrics_own_bound(tmp_path):
    fps_bound, p50_bound = BOUNDS["frames_per_s"], BOUNDS["alert_p50_ms"]

    def doc(name, fps_factor, p50_factor, jitter=0.01, **kwargs):
        return _doc(tmp_path / name, "tick_paper", [
            {"frames_per_s": 1000 * fps_factor * (1 + j), "alert_p50_ms": 10.0 * p50_factor}
            for j in (-jitter, 0.0, jitter)
        ], **kwargs)

    base = doc("a.json", 1.0, 1.0)
    same = doc("b.json", 1 - 0.5 * fps_bound, 1 + 0.5 * p50_bound)  # worse, inside the bounds
    slow = doc("c.json", 1 - 1.5 * fps_bound, 1 + 1.5 * p50_bound, failed_share=0.01)
    wild = doc("d.json", 1.0, 1.0, jitter=fps_bound, noisy=True)  # spread 2x the bound
    fast = doc("e.json", 2.0, 1.0, jitter=fps_bound)  # as wild, but every run beats every base run
    verdicts = lambda rows: {r["metric"]: r["verdict"] for r in rows}
    assert verdicts(compare.compare(base, same)) == {
        "frames_per_s": "agree", "alert_p50_ms": "agree", "failed_share": "agree"}
    assert verdicts(compare.compare(base, slow)) == {
        "frames_per_s": "regressed", "alert_p50_ms": "regressed", "failed_share": "regressed"}
    rows = compare.compare(base, wild)
    assert verdicts(rows)["frames_per_s"] == "unresolved" and all(r["noisy"] for r in rows)
    assert not any(r["over_limit"] for r in rows) and "[over the latency limit]" not in compare.render(rows)
    assert verdicts(compare.compare(base, fast))["frames_per_s"] == "agree"
    assert "new/base" in compare.render(rows)
    assert compare.main(["compare.py", base, same]) == 0
    assert compare.main(["compare.py", base, slow]) == 1


def test_refuses_below_two_cores_and_without_the_program(tmp_path):
    one = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        RUN + ["--workload", "tick_paper", "--smoke"], capture_output=True, text=True,
        timeout=60, preexec_fn=lambda: os.sched_setaffinity(0, {one}),
    )
    assert proc.returncode == 2 and ">= 2 allowed CPU cores" in proc.stderr
    assert not proc.stdout.strip().endswith("}")  # no result line
    # A checkout holding only the benchmark: non-zero, no result.
    bare = tmp_path / "bench"
    bare.mkdir()
    for name in ("run.py", "__init__.py"):
        (bare / name).write_text((ROOT / "bench" / name).read_text())
    proc = subprocess.run([sys.executable, str(bare / "run.py"), "--workload", "tick_paper"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "no program to measure" in proc.stderr and not proc.stdout


def test_a_killed_load_generator_leaves_nothing_behind():
    """SIGKILL mid-run: gateway child, shard workers, /dev/shm rings and
    the event-store directory must all be gone moments later."""
    shm_before = set(os.listdir("/dev/shm"))
    proc = subprocess.Popen(
        RUN + ["--workload", "sat_wire_k2", "--seconds", "30"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    run_dir = ROOT / "bench" / "out" / f"run-{proc.pid}"
    try:
        deadline = time.time() + 30
        while time.time() < deadline:  # wait until the fleet is up and fed
            if harness.pids_with_cmdline(str(run_dir)) and (run_dir / "store").is_dir() \
                    and set(os.listdir("/dev/shm")) - shm_before:
                break
            time.sleep(0.05)
        else:
            pytest.fail("the run never started its gateway child")
        time.sleep(0.5)
        proc.send_signal(signal.SIGKILL)
        proc.wait(10)
        deadline = time.time() + 20
        while time.time() < deadline:
            leftovers = (
                harness.pids_with_cmdline(str(run_dir)),
                set(os.listdir("/dev/shm")) - shm_before,
                run_dir.exists(),
            )
            if not any(leftovers):
                break
            time.sleep(0.1)
        assert not any(leftovers), leftovers
    finally:
        if proc.poll() is None:
            proc.kill()
        for pid in harness.pids_with_cmdline(str(run_dir)):
            os.kill(pid, signal.SIGKILL)
