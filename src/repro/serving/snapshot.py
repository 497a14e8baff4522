"""Serving-state serialisation for worker bootstrap and live migration.

Two codecs, one policy (arrays and JSON only — no pickled code crosses
a process boundary, mirroring :mod:`repro.nn.serialization`):

- **Monitor snapshots** — the sharded serving layer starts each worker
  process from one in-memory snapshot of the trained
  :class:`~repro.core.pipeline.SafetyMonitor`: :func:`monitor_to_bytes`
  packs both pipeline stages — every model via
  :func:`repro.nn.save_model_bytes`, every scaler's statistics, and the
  configuration needed to rebuild them — into a single ``.npz``
  archive, and :func:`monitor_from_bytes` reconstructs a monitor that
  is bit-identical at inference time.
- **Session snapshots** — live fleet elasticity moves *sessions*
  between workers without dropping a frame: :func:`session_to_bytes`
  packs a :class:`~repro.serving.service.SessionState` (stream
  position, recent and pending frames, timeline, context) and
  :func:`session_from_bytes` restores it, byte-exactly, on the
  receiving worker — the payload of the ``migrate_out``/``migrate_in``
  transport ops.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict

import numpy as np

from ..config import MonitorConfig, TrainingConfig, WindowConfig
from ..core.error_classifiers import (
    ErrorClassifier,
    ErrorClassifierConfig,
    ErrorClassifierLibrary,
)
from ..core.gesture_classifier import GestureClassifier, GestureClassifierConfig
from ..core.pipeline import SafetyMonitor
from ..errors import ConfigurationError, NotFittedError
from ..gestures.vocabulary import Gesture
from ..nn import (
    Adam,
    SigmoidBinaryCrossEntropy,
    SoftmaxCrossEntropy,
    StandardScaler,
    load_model_bytes,
    save_model_bytes,
)
from ..nn.backends import validate_backend_name
from .service import SessionState

#: Bumped when the archive layout changes; readers reject other versions.
SNAPSHOT_VERSION = 1

#: Version byte of the *session* archive (migration payloads); bumped
#: independently of the monitor snapshot layout.  Session archives live
#: in pipes and in memory only, never on disk: readers know one version.
SESSION_SNAPSHOT_VERSION = 2


def _bytes_to_array(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8).copy()


def _scaler_arrays(scaler: StandardScaler, prefix: str, arrays: dict) -> None:
    if scaler.mean_ is None or scaler.scale_ is None:
        raise NotFittedError(f"{prefix}: scaler must be fitted before snapshot")
    arrays[f"{prefix}.scaler.mean"] = scaler.mean_
    arrays[f"{prefix}.scaler.scale"] = scaler.scale_


def _restore_scaler(archive, prefix: str) -> StandardScaler:
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(archive[f"{prefix}.scaler.mean"])
    scaler.scale_ = np.asarray(archive[f"{prefix}.scaler.scale"])
    return scaler


def _window_pair(config: WindowConfig) -> list[int]:
    return [int(config.window), int(config.stride)]


def monitor_to_bytes(monitor: SafetyMonitor, backend: str | None = None) -> bytes:
    """Serialise a trained monitor into one in-memory ``.npz`` archive.

    Captures everything inference needs — gesture-stage model, scaler and
    window/feature configuration; every per-gesture error classifier with
    its model, scaler and decision threshold; constant (always-safe)
    gestures; monitor windows and unsafe threshold.  Raises
    :class:`~repro.errors.NotFittedError` when either stage is untrained.

    ``backend`` optionally embeds an inference-backend choice (one of
    :data:`repro.nn.backends.BACKEND_NAMES`) in the archive, so every
    worker bootstrapped from this snapshot runs the same plan —
    :class:`~repro.serving.sharded.ShardedMonitorService` reads it via
    :func:`snapshot_backend` when no explicit backend is passed.
    """
    classifier = monitor.gesture_classifier
    if classifier.model is None:
        raise NotFittedError("gesture classifier must be trained before snapshot")

    arrays: dict[str, np.ndarray] = {}
    arrays["gesture.model"] = _bytes_to_array(save_model_bytes(classifier.model))
    _scaler_arrays(classifier.scaler, "gesture", arrays)
    g_cfg = classifier.config
    if g_cfg.feature_indices is not None:
        arrays["gesture.feature_indices"] = np.asarray(
            g_cfg.feature_indices, dtype=np.int64
        )

    error_entries: list[dict] = []
    for gesture in sorted(monitor.library.classifiers, key=int):
        clf = monitor.library.classifiers[gesture]
        if clf.model is None:
            raise NotFittedError(f"error classifier {gesture!r} is untrained")
        prefix = f"error.{int(gesture)}"
        arrays[f"{prefix}.model"] = _bytes_to_array(save_model_bytes(clf.model))
        _scaler_arrays(clf.scaler, prefix, arrays)
        error_entries.append(
            {
                "gesture": int(gesture),
                "seed": int(clf.seed),
                "threshold": float(clf.threshold),
            }
        )

    e_cfg = monitor.library.config
    meta = {
        "version": SNAPSHOT_VERSION,
        "threshold": float(monitor.threshold),
        # Optional serving preferences; readers tolerate their absence,
        # so older archives stay loadable under SNAPSHOT_VERSION 1.
        "serving": (
            {"backend": validate_backend_name(backend)}
            if backend is not None
            else {}
        ),
        "monitor_config": {
            "error_window": _window_pair(monitor.config.error_window),
            "frame_rate_hz": float(monitor.config.frame_rate_hz),
        },
        "gesture": {
            "seed": int(classifier.seed),
            "lstm_units": [int(u) for u in g_cfg.lstm_units],
            "dense_units": int(g_cfg.dense_units),
            "window": _window_pair(g_cfg.window),
            "dropout": float(g_cfg.dropout),
            "use_batch_norm": bool(g_cfg.use_batch_norm),
            "max_train_windows": g_cfg.max_train_windows,
            "training": asdict(g_cfg.training),
        },
        "library": {
            "seed": int(monitor.library.seed),
            "architecture": e_cfg.architecture,
            "hidden": [int(u) for u in e_cfg.hidden],
            "dense_units": int(e_cfg.dense_units),
            "dropout": float(e_cfg.dropout),
            "use_batch_norm": bool(e_cfg.use_batch_norm),
            "max_train_windows": e_cfg.max_train_windows,
            "training": asdict(e_cfg.training),
            "constant_gestures": sorted(
                int(g) for g in monitor.library.constant_gestures
            ),
            "classifiers": error_entries,
        },
    }
    arrays["__meta__"] = _bytes_to_array(json.dumps(meta).encode("utf-8"))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _read_meta(archive) -> dict:
    """Parse and version-check an open archive's ``__meta__`` entry.

    Shared by every reader so a future ``SNAPSHOT_VERSION`` bump or
    layout change cannot make :func:`snapshot_backend` and
    :func:`monitor_from_bytes` disagree on which archives load.
    """
    meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
    if meta.get("version") != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"unsupported monitor snapshot version {meta.get('version')!r}"
        )
    return meta


def snapshot_backend(data: bytes) -> str | None:
    """Inference-backend choice embedded in a snapshot, or ``None``.

    Reads only the archive's metadata — no models are rebuilt, so the
    sharded router can resolve its fleet-wide backend before any worker
    spawns.
    """
    with np.load(io.BytesIO(data)) as archive:
        meta = _read_meta(archive)
    return meta.get("serving", {}).get("backend")


def snapshot_history_frames(data: bytes) -> int:
    """:attr:`MonitorService.history_frames` of a snapshot's monitor —
    the longer of its two stages' windows — from the metadata alone."""
    with np.load(io.BytesIO(data)) as archive:
        meta = _read_meta(archive)
    return max(
        meta["gesture"]["window"][0], meta["monitor_config"]["error_window"][0]
    )


def snapshot_n_features(data: bytes) -> int | None:
    """Kinematics feature width a snapshot's monitor was trained for.

    Mirrors the width rule of
    :meth:`MonitorService._expected_n_features`: the error-stage scalers
    see full-width frames, the gesture scaler only does when no feature
    subset is configured.  Returns ``None`` when the archive constrains
    nothing.  Like :func:`snapshot_backend` this reads scaler statistics
    only — no models are rebuilt — so the sharded router can validate
    ``feed()`` widths synchronously before a frame block ever enters the
    asynchronous shared-memory data plane.
    """
    with np.load(io.BytesIO(data)) as archive:
        _read_meta(archive)
        if "gesture.feature_indices" not in archive.files:
            return int(archive["gesture.scaler.mean"].shape[0])
        for key in archive.files:
            if key.startswith("error.") and key.endswith(".scaler.mean"):
                return int(archive[key].shape[0])
    return None


def monitor_from_bytes(data: bytes) -> SafetyMonitor:
    """Rebuild a :class:`SafetyMonitor` from :func:`monitor_to_bytes` output.

    The reconstructed monitor produces bit-identical gestures and unsafe
    scores: models are restored weight-for-weight and scalers
    statistic-for-statistic, and inference is batch-size invariant.
    """
    with np.load(io.BytesIO(data)) as archive:
        meta = _read_meta(archive)

        g_meta = meta["gesture"]
        feature_indices = None
        if "gesture.feature_indices" in archive.files:
            feature_indices = np.asarray(archive["gesture.feature_indices"])
        gesture_config = GestureClassifierConfig(
            lstm_units=tuple(g_meta["lstm_units"]),
            dense_units=g_meta["dense_units"],
            window=WindowConfig(*g_meta["window"]),
            feature_indices=feature_indices,
            dropout=g_meta["dropout"],
            use_batch_norm=g_meta["use_batch_norm"],
            training=TrainingConfig(**g_meta["training"]),
            max_train_windows=g_meta["max_train_windows"],
        )
        classifier = GestureClassifier(gesture_config, seed=g_meta["seed"])
        classifier.model = load_model_bytes(bytes(archive["gesture.model"]))
        # Loaded models are weight-complete but uncompiled; inference only
        # needs the loss's probability head, not the training state.
        classifier.model.compile(
            loss=SoftmaxCrossEntropy(),
            optimizer=Adam(gesture_config.training.learning_rate),
        )
        classifier.scaler = _restore_scaler(archive, "gesture")
        classifier._fitted = True

        l_meta = meta["library"]
        error_config = ErrorClassifierConfig(
            architecture=l_meta["architecture"],
            hidden=tuple(l_meta["hidden"]),
            dense_units=l_meta["dense_units"],
            dropout=l_meta["dropout"],
            use_batch_norm=l_meta["use_batch_norm"],
            training=TrainingConfig(**l_meta["training"]),
            max_train_windows=l_meta["max_train_windows"],
        )
        library = ErrorClassifierLibrary(error_config, seed=l_meta["seed"])
        library.constant_gestures = {
            Gesture(int(g)) for g in l_meta["constant_gestures"]
        }
        for entry in l_meta["classifiers"]:
            gesture = Gesture(int(entry["gesture"]))
            clf = ErrorClassifier(gesture, error_config, seed=entry["seed"])
            prefix = f"error.{int(gesture)}"
            clf.model = load_model_bytes(bytes(archive[f"{prefix}.model"]))
            clf.model.compile(
                loss=SigmoidBinaryCrossEntropy(),
                optimizer=Adam(error_config.training.learning_rate),
            )
            clf.scaler = _restore_scaler(archive, prefix)
            clf.threshold = entry["threshold"]
            clf._fitted = True
            library.classifiers[gesture] = clf

        monitor_meta = meta["monitor_config"]
        config = MonitorConfig(
            error_window=WindowConfig(*monitor_meta["error_window"]),
            frame_rate_hz=monitor_meta["frame_rate_hz"],
        )
    return SafetyMonitor(
        classifier, library, config, threshold=meta["threshold"]
    )


# ----------------------------------------------------------------------
# Session snapshots (live migration payloads)
# ----------------------------------------------------------------------
def session_to_bytes(state: SessionState) -> bytes:
    """Serialise a :class:`SessionState` into one ``.npz`` archive.

    Arrays (timeline, recent and pending frames) travel as raw npz
    entries — bit-exact float64 — and scalars as JSON metadata, so a
    migrated session resumes with byte-identical state.  This is the
    wire payload of the sharded transport's ``migrate_out`` /
    ``migrate_in`` operations.
    """
    arrays: dict[str, np.ndarray] = {
        "gestures": np.asarray(state.gestures, dtype=np.int64),
        "scores": np.asarray(state.scores, dtype=float),
        "pending": np.asarray(state.pending, dtype=float),
        "recent": np.asarray(state.recent, dtype=float),
    }
    meta = {
        "version": SESSION_SNAPSHOT_VERSION,
        "session_id": state.session_id,
        "frames_done": int(state.frames_done),
        "record_timeline": bool(state.record_timeline),
        "current_gesture": int(state.current_gesture),
        # json round-trips finite float64 exactly (shortest-repr), so
        # the sticky score survives migration bit for bit.
        "current_score": float(state.current_score),
    }
    arrays["__meta__"] = _bytes_to_array(json.dumps(meta).encode("utf-8"))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _session_meta(archive) -> dict:
    """Parse and version-check an open session archive's metadata."""
    meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
    if meta.get("version") != SESSION_SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"unsupported session snapshot version {meta.get('version')!r}"
        )
    return meta


def session_snapshot_meta(data: bytes) -> tuple[str, int]:
    """``(session id, frames done)`` of a :func:`session_to_bytes` archive.

    Reads only the metadata entry — no arrays are materialised — so the
    sharded router and the gateway's resume path can place an imported
    session, and know how far into its stream it is, without decoding
    its frame arrays.  Raises
    :class:`~repro.errors.ConfigurationError` on a foreign version
    byte, like :func:`session_from_bytes`.
    """
    with np.load(io.BytesIO(data)) as archive:
        meta = _session_meta(archive)
    return str(meta["session_id"]), int(meta["frames_done"])


def session_snapshot_id(data: bytes) -> str:
    """Session id embedded in a :func:`session_to_bytes` archive
    (:func:`session_snapshot_meta`'s first field)."""
    return session_snapshot_meta(data)[0]


def session_from_bytes(data: bytes) -> SessionState:
    """Rebuild a :class:`SessionState` from :func:`session_to_bytes` output.

    Raises :class:`~repro.errors.ConfigurationError` on a foreign
    version byte or an archive missing one of its arrays.
    """
    with np.load(io.BytesIO(data)) as archive:
        meta = _session_meta(archive)
        missing = {"gestures", "scores", "pending", "recent"} - set(archive.files)
        if missing:
            raise ConfigurationError(
                f"session snapshot is missing the {sorted(missing)} arrays"
            )
        return SessionState(
            session_id=meta["session_id"],
            frames_done=int(meta["frames_done"]),
            record_timeline=bool(meta["record_timeline"]),
            current_gesture=int(meta["current_gesture"]),
            current_score=float(meta["current_score"]),
            gestures=np.asarray(archive["gestures"], dtype=np.int64),
            scores=np.asarray(archive["scores"], dtype=float),
            pending=np.asarray(archive["pending"], dtype=float),
            recent=np.asarray(archive["recent"], dtype=float),
        )
