"""Benchmark-owned plumbing: pinning, /proc accounting, meta, noise probe.

Nothing here touches :mod:`repro`; it is what lets the benchmark measure
the system under test from outside (CPU and resident set of other
processes through ``/proc``) and say on what box a number was taken.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Echo p99 above this labels a run ``noisy`` (flagged by compare.py).
NOISY_ECHO_P99_MS = 10.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (reported, exit code 2)."""


# ----------------------------------------------------------------------
# Cores
# ----------------------------------------------------------------------
def allowed_cores() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def split_cores(cores: list[int]) -> tuple[int, list[int]]:
    """``(load-generator core, system-under-test cores)``.

    Refuses below two cores: with generator and system on one core the
    wire numbers measure the scheduler, not the program.
    """
    if len(cores) < 2:
        raise BenchError(
            f"the benchmark needs >= 2 allowed CPU cores (one for the load "
            f"generator, the rest for the system under test); this process "
            f"may run on {cores}"
        )
    return cores[0], cores[1:]


# ----------------------------------------------------------------------
# /proc accounting of other processes
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """On-CPU seconds of one process (all its threads), 0.0 if gone.

    ``schedstat`` counts nanoseconds; ``stat`` (clock ticks) is the
    fallback on kernels without scheduler statistics.
    """
    total_ns = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total_ns += int(fh.read().split()[0])
        return total_ns / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MiB, 0.0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (the gateway's shard workers)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            out.append(int(entry))
    return sorted(out)


def pids_with_cmdline(needle: str) -> list[int]:
    """Live processes whose command line contains ``needle``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue
        if needle in cmdline:
            out.append(int(entry))
    return sorted(out)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.percentile(arr, q)) if arr.size else 0.0


def median(values) -> float:
    return pct(values, 50.0)


def slice_medians(times, values, start: float, slice_s: float) -> list[float]:
    """Median of ``values`` over each full ``slice_s``-long slice of
    ``times`` (seconds, any order) counted from ``start``; empty slices
    are left out."""
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if not times.size:
        return []
    index = np.floor((times - start) / slice_s).astype(np.int64)
    full = int(np.floor((times.max() - start) / slice_s))  # the last one is partial
    return [
        float(np.median(values[index == k])) for k in range(full) if np.any(index == k)
    ]


def input_hash(arrays) -> str:
    """SHA-256 over the generated inputs: same seed, same hash."""
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# What one timed window yields
# ----------------------------------------------------------------------
@dataclass
class Segment:
    window_s: float = 0.0
    frames: int = 0  # events received inside the window
    latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    late_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sut_cpu_s: float = 0.0
    gateway_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    note: str | None = None  # e.g. events missing after the drain timeout
    over_limit: str | None = None  # rt30_wire: latency limit or backlog breached
    stats_before: dict | None = None
    stats_after: dict | None = None
    #: (frames, wall s, SUT cpu s) per slice of the window, where a slice
    #: can be cut exactly (in process: SLICE_S of ticks, one bulk call).
    units: list = field(default_factory=list)
    #: Median latency of each SLICE_S-long slice of the window.
    slice_p50_ms: list = field(default_factory=list)

    def rate_units(self) -> list:
        return self.units or [(self.frames, self.window_s, self.sut_cpu_s)]


# ----------------------------------------------------------------------
# Meta
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_info() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def collect_meta(seed: int, seconds: float, **extra) -> dict:
    meta = {
        "nproc": os.cpu_count(),
        "affinity": allowed_cores(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }
    meta.update(extra)
    return meta


# ----------------------------------------------------------------------
# Box-noise probe
# ----------------------------------------------------------------------
async def _echo_probe(seconds: float, rate_hz: float) -> dict:
    """A bare asyncio echo pair at the rt30_wire schedule: what the box
    alone does to a paced round trip, with none of the program in it."""

    served = asyncio.Event()

    async def handle(reader, writer):
        try:
            while True:
                writer.write(await reader.readexactly(8))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the probe hung up: the expected end
        finally:
            writer.close()
            served.set()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    rtts = []
    period = 1.0 / rate_hz
    start = time.perf_counter()
    n = 0
    try:
        while True:
            due = start + n * period
            now = time.perf_counter()
            if due - start >= seconds:
                break
            if due > now:
                await asyncio.sleep(due - now)
            t0 = time.perf_counter()
            writer.write(b"\0" * 8)
            await asyncio.wait_for(reader.readexactly(8), timeout=5.0)
            rtts.append(1000.0 * (time.perf_counter() - t0))
            n += 1
    finally:
        writer.close()
        await asyncio.wait_for(served.wait(), 5.0)
        server.close()
        await server.wait_closed()
    return {
        "echo_samples": len(rtts),
        "echo_p50_ms": pct(rtts, 50),
        "echo_p99_ms": pct(rtts, 99),
    }


def _gemm_probe(reps: int = 20) -> float:
    """Median ms of a fixed single-thread 256x256 GEMM x 8 loop."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(8):
            np.dot(a, b)
        times.append(1000.0 * (time.perf_counter() - t0))
    return median(times)


def noise_probe(seconds: float, rate_hz: float) -> dict:
    noise = asyncio.run(_echo_probe(seconds, rate_hz))
    noise["gemm_ms"] = _gemm_probe()
    noise["noisy"] = bool(noise["echo_p99_ms"] > NOISY_ECHO_P99_MS)
    return noise
