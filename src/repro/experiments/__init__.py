"""One entry point per paper table/figure.

Each module exposes a ``run(scale=...)`` function returning structured
rows plus a ``render(...)`` helper producing the ASCII table that
``python -m repro.experiments <name>`` prints.  The
:class:`~repro.experiments.common.ExperimentScale` presets trade run time
for fidelity: ``"smoke"`` is what the fidelity contract
(``tests/experiments/test_fidelity_*.py``, ``docs/fidelity.md``) pins,
``"fast"`` (default) runs in minutes, ``"full"`` is the closest match to
the paper's data sizes.  Datasets and trained folds are built once per
process (:func:`~repro.experiments.common.dataset_of`,
:func:`~repro.experiments.common.fold_of`) and shared by every table.
"""

from .common import ExperimentScale, SCALES, get_scale

__all__ = ["ExperimentScale", "SCALES", "get_scale"]
