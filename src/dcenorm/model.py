"""Training the population reference from per-subject anchors.

The reference is not an average: one training subject is chosen whose
anchors sit most centrally in the cohort, and its anchor values become
the common target intensities verbatim. Centrality is scored by ranking
every subject per tissue and averaging the four ranks; the subject whose
average rank is closest to the cohort midpoint wins.
"""

from __future__ import annotations

import datetime as _dt
import os
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .anchors import TISSUES, AnchorSet, shared_value
from .errors import ValidationError
from .util import atomic_write_json, is_number, read_json

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NormalizationModel:
    m_air: float
    m_fat: float
    m_dense: float
    m_heart: float
    archetype_subject_id: str
    n_training: int
    created_at: str
    format_version: int = MODEL_FORMAT_VERSION

    def values(self) -> dict[str, float]:
        return {t: getattr(self, f"m_{t}") for t in TISSUES}


def midranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks of ``values``, a 1-d array.

    A value's rank is 1 plus the number of strictly smaller values; tied
    values share the average of the positions they occupy. With n values
    the ranks sum to n * (n + 1) / 2.
    """
    ordered = np.sort(values)
    lo = np.searchsorted(ordered, values, side="left")
    hi = np.searchsorted(ordered, values, side="right")
    return (lo + hi + 1) / 2.0


def rank_subjects(anchors: Sequence[AnchorSet], tissue: str) -> np.ndarray:
    """``midranks`` of one tissue's anchor values across subjects."""
    if tissue not in TISSUES:
        raise ValidationError(f"unknown tissue {tissue!r}")
    if not anchors:
        raise ValidationError("rank_subjects needs at least one subject")
    return midranks(np.array([getattr(a, f"v_{tissue}") for a in anchors], dtype=np.float64))


def _created_at() -> str:
    """Current UTC time, honoring SOURCE_DATE_EPOCH for reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = _dt.datetime.fromtimestamp(int(epoch), tz=_dt.timezone.utc)
    else:
        moment = _dt.datetime.now(tz=_dt.timezone.utc)
    return moment.replace(microsecond=0).isoformat()


def train_archetype(anchors: Sequence[AnchorSet]) -> NormalizationModel:
    """Select the most central training subject and freeze its anchors.

    Each subject's score is the mean of its four per-tissue fractional
    ranks; the subject minimizing the distance to (n + 1) / 2 is the
    archetype, with ties broken by the lexicographically smallest
    subject id. A single subject is trivially its own archetype.
    """
    anchors = list(anchors)
    if not anchors:
        raise ValidationError("cannot train on an empty anchor list")
    ids = [a.subject_id for a in anchors]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate subject ids in training anchors")

    scores = np.zeros(len(anchors), dtype=np.float64)
    for tissue in TISSUES:
        scores += rank_subjects(anchors, tissue)
    scores /= len(TISSUES)

    target = (len(anchors) + 1) / 2.0
    distance = np.abs(scores - target)
    best = distance.min()
    candidates = [ids[i] for i in range(len(anchors)) if distance[i] == best]
    winner = min(candidates)
    archetype = anchors[ids.index(winner)]

    return NormalizationModel(
        m_air=archetype.v_air,
        m_fat=archetype.v_fat,
        m_dense=archetype.v_dense,
        m_heart=archetype.v_heart,
        archetype_subject_id=winner,
        n_training=len(anchors),
        created_at=_created_at(),
    )


def save_model(model: NormalizationModel, path) -> None:
    payload = {
        "format_version": model.format_version,
        "m_air": model.m_air,
        "m_fat": model.m_fat,
        "m_dense": model.m_dense,
        "m_heart": model.m_heart,
        "archetype_subject_id": model.archetype_subject_id,
        "n_training": model.n_training,
        "created_at": model.created_at,
    }
    atomic_write_json(path, payload)


def load_model(path) -> NormalizationModel:
    """Read a model file; a malformed or missing value, or two targets that are equal, is a ValidationError naming it."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValidationError("model file must contain a JSON object", path=path)
    version = data.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValidationError(
            f"unknown model format_version {version!r}, expected {MODEL_FORMAT_VERSION}",
            path=path,
        )
    for key in ("m_air", "m_fat", "m_dense", "m_heart", "n_training"):
        if key in data and not is_number(data[key], Integral if key == "n_training" else Real):
            raise ValidationError(f"model key {key!r} has a malformed value {data[key]!r}", path=path)
    try:
        model = NormalizationModel(
            m_air=float(data["m_air"]),
            m_fat=float(data["m_fat"]),
            m_dense=float(data["m_dense"]),
            m_heart=float(data["m_heart"]),
            archetype_subject_id=str(data["archetype_subject_id"]),
            n_training=int(data["n_training"]),
            created_at=str(data["created_at"]),
            format_version=int(version),
        )
    except KeyError as exc:
        raise ValidationError(f"model file is missing key {exc.args[0]!r}", path=path) from exc
    shared = shared_value(model.values())
    if shared is not None:
        t0, t1, value = shared
        raise ValidationError(f"tissues {t0!r} and {t1!r} share target value {value}", path=path)
    return model
