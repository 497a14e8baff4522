"""Finite-state Markov-chain task grammars.

The paper models each surgical task as a finite-state Markov chain whose
states are atomic gestures (Section II, Figure 3).  :class:`MarkovChain`
supports the three operations this reproduction needs:

- **fit** a chain from observed gesture sequences (Figure 3 is "derived
  from the analysis of the dry-lab demonstrations");
- **sample** gesture sequences from a chain (the synthetic-data
  generators draw task grammars from the paper's published chains); and
- **query** transition probabilities / export to :mod:`networkx` for
  analysis and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import as_generator
from ..errors import ConfigurationError, GestureError
from .vocabulary import END_TOKEN, START_TOKEN, Gesture

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


@dataclass
class MarkovChain:
    """A first-order Markov chain over surgical gestures.

    States are :class:`~repro.gestures.vocabulary.Gesture` members plus the
    virtual ``START_TOKEN``/``END_TOKEN`` sentinels.  Probabilities are
    stored sparsely as ``{state: {next_state: p}}``.
    """

    transitions: dict[int, dict[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for state, row in self.transitions.items():
            total = sum(row.values())
            if row and not np.isclose(total, 1.0, atol=1e-6):
                raise ConfigurationError(
                    f"outgoing probabilities from state {state} sum to {total:.4f}"
                )
            if any(p < 0 for p in row.values()):
                raise ConfigurationError("transition probabilities must be >= 0")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, sequences: list[list[int]], smoothing: float = 0.0) -> "MarkovChain":
        """Maximum-likelihood chain from gesture sequences.

        Each sequence is a list of gesture numbers; virtual start/end
        transitions are added automatically.  ``smoothing`` adds a small
        pseudo-count to every *observed-state* pair (add-k smoothing over
        the states seen in the data).
        """
        if not sequences:
            raise ConfigurationError("at least one sequence is required")
        counts: dict[int, dict[int, float]] = {}
        states: set[int] = set()
        for seq in sequences:
            if not seq:
                continue
            path = [START_TOKEN, *[int(g) for g in seq], END_TOKEN]
            states.update(path)
            for a, b in zip(path[:-1], path[1:]):
                counts.setdefault(a, {}).setdefault(b, 0.0)
                counts[a][b] += 1.0
        if not counts:
            raise ConfigurationError("all sequences were empty")
        if smoothing > 0.0:
            targets = sorted(states - {START_TOKEN})
            for state in sorted(states - {END_TOKEN}):
                row = counts.setdefault(state, {})
                for target in targets:
                    row[target] = row.get(target, 0.0) + smoothing
        transitions: dict[int, dict[int, float]] = {}
        for state, row in counts.items():
            total = sum(row.values())
            transitions[state] = {nxt: c / total for nxt, c in row.items()}
        return cls(transitions)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def states(self) -> list[int]:
        """All states (including sentinels), sorted with sentinels last."""
        found: set[int] = set(self.transitions)
        for row in self.transitions.values():
            found.update(row)
        gestures = sorted(s for s in found if s not in (START_TOKEN, END_TOKEN))
        out = gestures
        if START_TOKEN in found:
            out = [START_TOKEN, *out]
        if END_TOKEN in found:
            out = [*out, END_TOKEN]
        return out

    def gesture_states(self) -> list[Gesture]:
        """Non-sentinel states as :class:`Gesture` members."""
        return [
            Gesture(s) for s in self.states() if s not in (START_TOKEN, END_TOKEN)
        ]

    def probability(self, current: int, nxt: int) -> float:
        """P(next = ``nxt`` | current = ``current``), 0 if unseen."""
        return self.transitions.get(current, {}).get(nxt, 0.0)

    def successors(self, state: int) -> dict[int, float]:
        """Outgoing transition distribution of ``state`` (possibly empty)."""
        return dict(self.transitions.get(state, {}))

    def sequence_log_likelihood(self, sequence: list[int]) -> float:
        """Log-likelihood of a gesture sequence under the chain.

        Returns ``-inf`` when the sequence uses an unseen transition.
        """
        path = [START_TOKEN, *[int(g) for g in sequence], END_TOKEN]
        total = 0.0
        for a, b in zip(path[:-1], path[1:]):
            p = self.probability(a, b)
            if p <= 0.0:
                return float("-inf")
            total += float(np.log(p))
        return total

    def transition_matrix(self) -> tuple[np.ndarray, list[int]]:
        """Dense row-stochastic matrix and the state ordering used."""
        order = self.states()
        index = {s: i for i, s in enumerate(order)}
        matrix = np.zeros((len(order), len(order)))
        for state, row in self.transitions.items():
            for nxt, p in row.items():
                matrix[index[state], index[nxt]] = p
        return matrix, order

    def to_networkx(self) -> nx.DiGraph:
        """Directed graph with ``probability`` edge attributes."""
        # Function-local: only this export needs networkx (~0.1 s).
        import networkx as nx

        graph = nx.DiGraph()
        for state in self.states():
            graph.add_node(state)
        for state, row in self.transitions.items():
            for nxt, p in row.items():
                if p > 0.0:
                    graph.add_edge(state, nxt, probability=p)
        return graph

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_sequence(
        self,
        rng: int | np.random.Generator | None = None,
        max_length: int = 200,
    ) -> list[Gesture]:
        """Sample a gesture sequence from START to END.

        Raises :class:`GestureError` if END is not reached within
        ``max_length`` gestures (indicating an absorbing loop).
        """
        gen = as_generator(rng)
        state = START_TOKEN
        out: list[Gesture] = []
        for _ in range(max_length):
            row = self.transitions.get(state)
            if not row:
                raise GestureError(f"state {state} has no outgoing transitions")
            nxt_states = list(row)
            probs = np.array([row[s] for s in nxt_states])
            probs = probs / probs.sum()
            state = int(gen.choice(nxt_states, p=probs))
            if state == END_TOKEN:
                if not out:
                    raise GestureError("chain terminated before any gesture")
                return out
            out.append(Gesture(state))
        raise GestureError(f"END not reached within {max_length} gestures")
