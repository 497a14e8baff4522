"""Timeliness metrics: jitter, reaction time, early-detection percentage.

Semantics follow paper Section IV-C and Figure 8:

- **Jitter** of a gesture detection is ``actual_start - detected_start``
  in frames/ms; positive = the gesture was recognised *early*.
- **Reaction time** of an erroneous-gesture detection is
  ``actual_error_start - first_detected_erroneous_frame``; positive =
  the error was flagged before it began (early detection), negative =
  detection delay.
- **% early detection** is the fraction of erroneous gesture occurrences
  with positive reaction time.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def _segments(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Contiguous runs of equal values as (value, start, end_exclusive)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ShapeError("labels must be a non-empty 1-D array")
    out = []
    start = 0
    for t in range(1, labels.size + 1):
        if t == labels.size or labels[t] != labels[start]:
            out.append((int(labels[start]), start, t))
            start = t
    return out


def gesture_jitter(
    true_gestures: np.ndarray,
    predicted_gestures: np.ndarray,
    restrict_to: np.ndarray | None = None,
) -> dict[int, list[float]]:
    """Per-gesture jitter samples (frames) over one demonstration.

    For every true gesture occurrence starting at frame ``s``, the
    detection time is the first frame ``>= s - lookback`` at which the
    predictor outputs that gesture and keeps it for at least 2 frames
    (debouncing transient flickers); jitter = ``s - detected``.
    Occurrences never detected are skipped.

    ``restrict_to`` optionally masks which occurrences to include (same
    length as the label arrays; an occurrence counts when any of its
    frames is masked true) — used for "jitter on erroneous gestures".
    """
    true_gestures = np.asarray(true_gestures).astype(int)
    predicted_gestures = np.asarray(predicted_gestures).astype(int)
    if true_gestures.shape != predicted_gestures.shape:
        raise ShapeError("label arrays must have equal shape")
    n = true_gestures.size
    out: dict[int, list[float]] = {}
    for value, start, end in _segments(true_gestures):
        if restrict_to is not None and not np.asarray(restrict_to)[start:end].any():
            continue
        lookback = max(0, start - (end - start))
        window = predicted_gestures[lookback : min(end, n)]
        hits = np.flatnonzero(window == value)
        detected = None
        for h in hits:
            absolute = lookback + h
            run_end = min(absolute + 2, n)
            if (predicted_gestures[absolute:run_end] == value).all():
                detected = absolute
                break
        if detected is None:
            continue
        out.setdefault(value, []).append(float(start - detected))
    return out


def reaction_times(
    true_unsafe: np.ndarray,
    predicted_unsafe: np.ndarray,
    true_gestures: np.ndarray | None = None,
) -> list[tuple[int | None, float]]:
    """Reaction time per erroneous occurrence (Equation 4).

    For every contiguous true-unsafe segment starting at frame ``s``, the
    detection frame is the first predicted-unsafe frame at or after the
    *previous* segment boundary (allowing early detection); reaction =
    ``s - detected`` (positive = early).  Undetected occurrences are
    skipped.  Returns ``(gesture_number | None, reaction_frames)`` pairs.
    """
    true_unsafe = np.asarray(true_unsafe).astype(int)
    predicted_unsafe = np.asarray(predicted_unsafe).astype(int)
    if true_unsafe.shape != predicted_unsafe.shape:
        raise ShapeError("label arrays must have equal shape")
    out: list[tuple[int | None, float]] = []
    prev_end = 0
    for value, start, end in _segments(true_unsafe):
        if value != 1:
            prev_end = max(prev_end, start)
            continue
        search_from = prev_end
        hits = np.flatnonzero(predicted_unsafe[search_from:end])
        if hits.size:
            detected = search_from + int(hits[0])
            gesture = (
                int(np.asarray(true_gestures)[start])
                if true_gestures is not None
                else None
            )
            out.append((gesture, float(start - detected)))
        prev_end = end
    return out


def early_detection_percentage(reactions: list[tuple[int | None, float]]) -> float:
    """Fraction (percent) of reactions that are strictly positive."""
    if not reactions:
        return float("nan")
    early = sum(1 for _, r in reactions if r > 0)
    return 100.0 * early / len(reactions)
