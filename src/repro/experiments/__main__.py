"""Command-line experiment runner.

Regenerate any paper table/figure from the shell:

    python -m repro.experiments table3 --scale smoke
    python -m repro.experiments table8 --scale fast --seed 1
    python -m repro.experiments figure9

Prints each experiment's ``render`` of its ``run`` — the tables whose
digits and claims the fidelity contract pins at ``--scale smoke --seed 0``.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import figure3, figure5, figure8, figure9, table3, table4, table5, table6
from . import table7, table8, table9

_RUNNERS = {
    "table3": lambda scale, seed: table3.render(table3.run(scale, seed)[0]),
    "table4": lambda scale, seed: table4.render(table4.run(scale, seed)),
    "table5": lambda scale, seed: table5.render(table5.run(scale, seed)),
    "table6": lambda scale, seed: table6.render(table6.run(scale, seed)),
    "table7": lambda scale, seed: table7.render(table7.run(scale, seed)),
    "table8": lambda scale, seed: table8.render(table8.run(scale, seed)),
    "table9": lambda scale, seed: table9.render(table9.run(scale, seed)),
    "figure3": lambda scale, seed: figure3.render(figure3.run(scale, seed)),
    "figure5": lambda scale, seed: figure5.render(figure5.run(scale, seed)),
    "figure8": lambda scale, seed: figure8.render(figure8.run(scale, seed)),
    "figure9": lambda scale, seed: figure9.render(figure9.run(scale, seed)),
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table or figure of the paper.",
    )
    parser.add_argument("experiment", choices=sorted(_RUNNERS), help="what to run")
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=("smoke", "fast", "full"),
        help="data/model scale preset (default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    output = _RUNNERS[args.experiment](args.scale, args.seed)
    elapsed = time.perf_counter() - start
    print(output)
    print(f"\n[{args.experiment} @ {args.scale} scale, seed {args.seed}: "
          f"{elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
