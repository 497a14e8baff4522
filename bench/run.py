"""One command for the frame-to-alert path.

::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--json OUT]

Without ``--workload`` every workload runs in turn, each in a fresh
process of this same file (so pinning and peak-RSS accounting start
clean), and with ``--trace`` each runs a second time traced.  With
``--workload`` exactly one run happens in this process and the **last
line of stdout** is the driver's contract object::

    {"correct": true, "attempted": 7360, "failed": 0, "metrics": {...}}

whose metrics are every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  ``--json OUT`` appends the full
result — metrics of both kinds, ``meta``, the box-noise probe — to OUT,
the document ``bench/compare.py`` reads.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys

# Before numpy is imported, here and (inherited) in every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
ROOT = _HERE.parent
if sys.path and Path(sys.path[0] or ".").resolve() == _HERE:
    sys.path.pop(0)  # keep bench/trace.py from shadowing the stdlib's trace
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("::")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: 15; --smoke: 2)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics (default: 0)")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s, one set-up round: self-tests only, never recorded")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="append the full result document to OUT")
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _print_metrics(workload: str, metrics: dict) -> None:
    from bench.metrics import END_TO_END_NAMES, UNITS

    for name, value in metrics.items():
        if value == 0.0 and name not in END_TO_END_NAMES:
            continue  # a layer this workload does not exercise
        print(f"{workload:12s} {name:48s} {value:16.4f} {UNITS[name]}")


def _append(path: str, run: dict) -> None:
    doc = {"schema": 1, "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].append(run)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def run_one(args: argparse.Namespace) -> int:
    """One workload, in this process; prints the contract line last."""
    from bench import harness, workloads
    from bench.metrics import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS

    seconds = args.seconds
    if seconds is None:
        seconds = workloads.SMOKE_SECONDS if args.smoke else workloads.DEFAULT_SECONDS
    if seconds <= 0:
        return _fail("--seconds must be > 0")
    started = time.time()
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke
        )
    except harness.BenchError as exc:
        return _fail(str(exc))
    names = PER_LAYER_NAMES if args.trace else END_TO_END_NAMES
    failed_share = outcome.failed / max(outcome.attempted, 1)
    _print_metrics(outcome.workload, outcome.metrics)
    print(f"{outcome.workload:12s} {'failed_share':48s} {failed_share:16.6f} ratio"
          f"   ({outcome.failed} failed / {outcome.attempted} attempted)")
    if outcome.over_limit_rounds:
        print(f"{outcome.workload:12s} {'over_limit_rounds':48s} "
              f"{outcome.over_limit_rounds:16d} count   (of {len(outcome.rounds)}; see the notes)")
    for note in outcome.notes:
        print(f"{outcome.workload:12s} note: {note}")
    if args.json:
        meta = harness.collect_meta(
            args.seed, seconds, smoke=args.smoke, started_unix=started,
            input_hash=outcome.input_hash, program_args=outcome.program_args,
            sut_cores=outcome.program_args.get("sut_cores"),
            noise=harness.noise_probe(
                0.5 if args.smoke else 5.0, workloads.RT30_RATE_HZ * workloads.RT30_SESSIONS
            ),
        )
        _append(args.json, {
            "workload": outcome.workload, "seed": args.seed, "trace": int(args.trace),
            "attempted": outcome.attempted, "failed": outcome.failed,
            "failed_share": failed_share, "over_limit_rounds": outcome.over_limit_rounds,
            "notes": outcome.notes, "rounds": outcome.rounds,
            "metrics": {
                k: {"value": v, "unit": UNITS[k]} for k, v in outcome.metrics.items()
            },
            "meta": meta,
        })
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": UNITS[name]} for name in names
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process of this file."""
    from bench import workloads

    worst = 0
    for workload in workloads.WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed), "--trace", str(trace)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            if args.smoke:
                cmd.append("--smoke")
            if args.json:
                cmd += ["--json", args.json]
            print(f"# {workload} trace={trace}", flush=True)
            worst = max(worst, subprocess.run(cmd, timeout=600).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
