"""Compare result documents written by ``bench/run.py --json``.

::

    python3 bench/compare.py BASE.json NEW.json [MORE.json ...]

Each document is a *set of runs* (``run.py --json OUT`` appends).  For
every workload x end-to-end metric the medians of BASE and of each other
document are compared under the metric's own bound, one row each, every
ratio printed with its base:

``agree``       NEW's median is no worse than BASE's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the run-to-run spread (interquartile distance / median,
                either side) is wider than the bound — unless every run
                of NEW reads better than every run of BASE

``failed_share`` regresses on any increase.  Rows whose runs include a
``noisy`` box-noise probe (echo p99 > 10 ms) or an ``rt30_wire`` round
over its latency limit are flagged.  Exit code 1 if any row regressed,
else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.metrics import END_TO_END  # noqa: E402


def load(path: str) -> dict:
    """``{workload: {"metrics": {name: [values]}, "failed_share": [..], "noisy": bool,
    "over_limit": bool}}`` over the untraced runs of one document."""
    with open(path) as fh:
        doc = json.load(fh)
    out: dict = {}
    for run in doc.get("runs", []):
        if run.get("trace"):
            continue  # end-to-end numbers always come from untraced runs
        entry = out.setdefault(
            run["workload"],
            {"metrics": {}, "failed_share": [], "noisy": False, "over_limit": False},
        )
        for name, cell in run["metrics"].items():
            entry["metrics"].setdefault(name, []).append(float(cell["value"]))
        entry["failed_share"].append(float(run.get("failed_share", 0.0)))
        noise = (run.get("meta") or {}).get("noise") or {}
        entry["noisy"] = entry["noisy"] or bool(noise.get("noisy"))
        entry["over_limit"] = entry["over_limit"] or bool(run.get("over_limit_rounds"))
    return out


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def judge(base: list[float], new: list[float], better: str, bound: float) -> dict:
    """One row: medians, ratio, worsening, spreads and the verdict."""
    base_med, new_med = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    widest = max(spread(base), spread(new))
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if widest > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "agree"
    return {
        "base": base_med, "new": new_med, "n_base": len(base), "n_new": len(new),
        "ratio": new_med / base_med if base_med else float("nan"),
        "worse_by": worse_by, "spread": widest, "verdict": verdict,
    }


def compare(base_path: str, new_path: str) -> list[dict]:
    base, new = load(base_path), load(new_path)
    rows = []
    for workload in base:
        if workload not in new:
            continue
        b, n = base[workload], new[workload]
        noisy = b["noisy"] or n["noisy"]
        over_limit = b["over_limit"] or n["over_limit"]
        for metric in END_TO_END:
            if metric.name not in b["metrics"] or metric.name not in n["metrics"]:
                continue
            row = judge(b["metrics"][metric.name], n["metrics"][metric.name],
                        metric.better, metric.bound)
            row.update(workload=workload, metric=metric.name, unit=metric.unit,
                       bound=metric.bound, noisy=noisy, over_limit=over_limit)
            rows.append(row)
        b_fail, n_fail = statistics.median(b["failed_share"]), statistics.median(n["failed_share"])
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio", "bound": 0.0,
            "base": b_fail, "new": n_fail, "n_base": len(b["failed_share"]),
            "n_new": len(n["failed_share"]),
            "ratio": n_fail / b_fail if b_fail else float("nan"),
            "worse_by": n_fail - b_fail, "spread": 0.0, "noisy": noisy, "over_limit": over_limit,
            "verdict": "regressed" if n_fail > b_fail else "agree",
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':12s} {'metric':18s} {'base (n)':>18s} {'new (n)':>18s} "
        f"{'new/base':>9s} {'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:12s} {r['metric']:18s} "
            f"{r['base']:13.4f} ({r['n_base']:d}) {r['new']:13.4f} ({r['n_new']:d}) "
            f"{r['ratio']:9.4f} {100 * r['worse_by']:8.2f}% {100 * r['bound']:5.0f}% "
            f"{100 * r['spread']:6.2f}%  {r['verdict']}{'  [noisy box]' if r['noisy'] else ''}"
            f"{'  [over the latency limit]' if r['over_limit'] else ''}"
            f"  [{r['unit']}]"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    regressed = False
    for new_path in argv[2:]:
        rows = compare(argv[1], new_path)
        print(f"# base {argv[1]}  vs  new {new_path}")
        print(render(rows))
        regressed = regressed or any(r["verdict"] == "regressed" for r in rows)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
