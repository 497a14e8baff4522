"""The system under test for the wire workloads: one gateway, one process.

Started by the load generator as
``python3 bench/gateway_proc.py '<json config>'``.  Builds the monitor,
starts a :class:`repro.serving.MonitorGateway` with exactly the
constructor arguments in the config (the load generator records them in
``meta``), prints one ``ready`` JSON line, then answers JSON commands on stdin — one reply
line each — until ``stop`` or EOF:

``stats``      gateway_stats() + per-shard tick samples + worker pids
``trace_on``   install the bench's span wrappers in *this* process (the
               shard workers were forked before and stay unwrapped)
``trace_off``  remove them; write this process's spans to ``path``
``stop``       stop the gateway, close the store, reply, exit

EOF on stdin means the load generator is gone (killed mid-run): the child
then also removes the run's scratch directory, so nothing outlives a dead
benchmark — shard workers and ``/dev/shm`` rings are reaped by
``gateway.stop()`` on every path.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
if sys.path and Path(sys.path[0] or ".").resolve() == _HERE:
    sys.path.pop(0)  # keep bench/trace.py from shadowing the stdlib's trace
sys.path[:0] = [str(_HERE.parent), str(_HERE.parent / "src")]

import asyncio  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402


def _reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def _stats(gateway) -> dict:
    stats = await gateway.gateway_stats()
    shard_stats = await gateway.shard_stats()
    shards = {
        str(index): {
            "n_ticks": s.n_ticks,
            "frames_processed": s.frames_processed,
            # The retained window (<= 65536 ticks) covers a whole segment.
            "tick_ms": [float(v) for v in s.tick_ms[-20000:]],
        }
        for index, s in shard_stats.items()
    }
    return {
        "gateway_stats": stats,
        "shards": shards,
        "worker_pids": [p.pid for p in multiprocessing.active_children()],
    }


async def _serve(config: dict) -> int:
    from bench.trace import Tracer
    from repro.serving import EventStoreWriter, MonitorGateway, make_synthetic_monitor

    t0 = time.perf_counter()
    monitor = make_synthetic_monitor(**config["monitor"])
    build_s = time.perf_counter() - t0
    store_dir = config.get("store_dir")
    store = EventStoreWriter(store_dir) if store_dir else None
    gateway = MonitorGateway(monitor, event_store=store, **config["gateway"])
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    commands = asyncio.StreamReader(limit=1 << 24)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    tracer: Tracer | None = None
    orphaned = False
    t0 = time.perf_counter()
    await gateway.start()
    stopper = asyncio.ensure_future(stop.wait())
    try:
        _reply({
            "ready": True, "port": gateway.port, "pid": os.getpid(),
            "build_s": build_s, "start_s": time.perf_counter() - t0,
            "cores": sorted(os.sched_getaffinity(0)),
        })
        while not stop.is_set():
            read = asyncio.ensure_future(commands.readline())
            await asyncio.wait({read, stopper}, return_when=asyncio.FIRST_COMPLETED)
            if not read.done():
                read.cancel()
                break  # SIGTERM / SIGINT
            line = read.result()
            if not line:
                orphaned = True  # load generator died: clean up after it
                break
            request = json.loads(line)
            cmd = request["cmd"]
            if cmd == "stats":
                _reply(await _stats(gateway))
            elif cmd == "trace_on":
                tracer = Tracer(stamps=bool(request.get("stamps")))
                tracer.fed.update(request.get("fed", {}))
                tracer.install()
                _reply({"ok": True})
            elif cmd == "trace_off":
                assert tracer is not None
                tracer.uninstall()
                extra = {}
                if tracer.sharded_service is not None:
                    extra["occupancy"] = {
                        str(k): v
                        for k, v in tracer.sharded_service.shard_occupancy().items()
                    }
                with open(request["path"], "w") as fh:
                    json.dump(tracer.dump(), fh)
                _reply({"ok": True, "summary": tracer.summary(), **extra})
                tracer = None
            elif cmd == "stop":
                break
            else:
                _reply({"ok": False, "error": f"unknown command {cmd!r}"})
    finally:
        stopper.cancel()
        if tracer is not None:
            tracer.uninstall()
        await gateway.stop()
        store_stats = None
        if store is not None:
            store.close()
            store_stats = store.stats()
        if orphaned:
            shutil.rmtree(config["run_dir"], ignore_errors=True)
    if not orphaned:
        _reply({"stopped": True, "store": store_stats})
    return 0


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    os.sched_setaffinity(0, set(config["cores"]))
    return asyncio.run(_serve(config))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
