"""Paper Figure 3: Markov chains derived from demonstration data.

Re-derives the Suturing and Block Transfer task grammars from the
(synthetic) demonstrations' gesture sequences and compares them against
the published chains the data was sampled from — closing the loop the
paper describes ("the Markov chain ... derived from the analysis of the
dry-lab demonstrations").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..eval.reports import format_table
from ..gestures.markov import MarkovChain
from ..gestures.models import block_transfer_chain, suturing_chain
from ..gestures.vocabulary import END_TOKEN, START_TOKEN
from ..jigsaws.dataset import SurgicalDataset
from .common import ExperimentScale, dataset_of


@dataclass
class Figure3Result:
    """Fitted vs reference chain for one task."""

    task: str
    fitted: MarkovChain
    reference: MarkovChain
    #: Mean absolute difference over the union of reference transitions.
    mean_abs_probability_error: float


def _compare(fitted: MarkovChain, reference: MarkovChain) -> float:
    errors = []
    for state, row in reference.transitions.items():
        for nxt, p_ref in row.items():
            errors.append(abs(fitted.probability(state, nxt) - p_ref))
    return float(np.mean(errors)) if errors else float("nan")


def fit_chain(dataset: SurgicalDataset) -> MarkovChain:
    """Maximum-likelihood chain from a dataset's gesture sequences."""
    sequences = [d.gesture_sequence() for d in dataset.demonstrations]
    return MarkovChain.fit(sequences)


def run(
    scale: "str | ExperimentScale" = "fast", seed: int = 0
) -> list[Figure3Result]:
    """Fit chains for both tasks and compare with Figure 3."""
    results = []
    for task, reference in (
        ("suturing", suturing_chain()),
        ("block_transfer", block_transfer_chain()),
    ):
        fitted = fit_chain(dataset_of(task, scale, seed))
        results.append(
            Figure3Result(
                task=task,
                fitted=fitted,
                reference=reference,
                mean_abs_probability_error=_compare(fitted, reference),
            )
        )
    return results


def render(results: list[Figure3Result]) -> str:
    """ASCII rendering: fitted transition probabilities per task."""
    blocks = []
    for result in results:
        headers = ["From", "To", "P(fitted)", "P(published)"]
        rows = []
        for state in result.fitted.states():
            if state == END_TOKEN:
                continue
            for nxt, p in sorted(result.fitted.successors(state).items()):
                name = "Start" if state == START_TOKEN else f"G{state}"
                nxt_name = "End" if nxt == END_TOKEN else f"G{nxt}"
                rows.append(
                    [name, nxt_name, f"{p:.2f}", f"{result.reference.probability(state, nxt):.2f}"]
                )
        blocks.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Figure 3 ({result.task}): fitted vs published chain "
                    f"(mean |dP| = {result.mean_abs_probability_error:.3f})"
                ),
            )
        )
    return "\n\n".join(blocks)
