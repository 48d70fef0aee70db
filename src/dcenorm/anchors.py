"""Per-subject anchor intensities for the four reference tissues.

Air, fat and dense anchors are nearest-rank medians of the pre-contrast
volume inside the corresponding label. The heart anchor comes from the
first post-contrast volume, read high in the distribution (90th
percentile by default) because heart intensity is too inhomogeneous for
a median to be stable there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import AnchorError, MaskError, ValidationError
from .manifest import StudySeries
from .volume import AIR, DENSE, FAT, HEART, TissueMask, check_same_grid, percentile

TISSUES = ("air", "fat", "dense", "heart")

HEART_RULES = ("p90", "top10_mean")


@dataclass(frozen=True)
class AnchorSet:
    subject_id: str
    v_air: float
    v_fat: float
    v_dense: float
    v_heart: float
    source_counts: Mapping[str, int]

    def __post_init__(self):
        for tissue in TISSUES:
            value = getattr(self, f"v_{tissue}")
            if not math.isfinite(value):
                raise ValidationError(f"anchor {tissue} is not finite: {value}")
            if self.source_counts.get(tissue, 0) < 1:
                raise ValidationError(f"anchor {tissue} has no source voxels")

    def values(self) -> dict[str, float]:
        return {t: getattr(self, f"v_{t}") for t in TISSUES}


def _heart_anchor(values: np.ndarray, rule: str) -> float:
    if rule == "p90":
        return percentile(values, 90.0)
    count = max(math.ceil(values.size * 0.1), 1)
    top = np.sort(values)[-count:]
    return float(np.mean(top.astype(np.float64)))


def extract_anchors(series: StudySeries, mask: TissueMask, heart_rule: str = "p90") -> AnchorSet:
    """Compute the four anchor intensities for one subject.

    Raises AnchorError naming the tissue when a label is empty; callers
    decide whether that skips the subject or aborts.
    """
    if heart_rule not in HEART_RULES:
        raise ValidationError(f"unknown heart anchor rule {heart_rule!r}")
    check_same_grid(mask, series, f"subject {series.subject_id}: mask and series", MaskError)

    counts: dict[str, int] = {}
    medians: dict[str, float] = {}
    for tissue, code in (("air", AIR), ("fat", FAT), ("dense", DENSE)):
        selected = mask.tissue(code)
        n = int(np.count_nonzero(selected))
        if n == 0:
            raise AnchorError(f"subject {series.subject_id}: tissue {tissue!r} is empty")
        counts[tissue] = n
        medians[tissue] = percentile(series.pre, 50.0, mask=selected)

    heart_sel = mask.tissue(HEART)
    n_heart = int(np.count_nonzero(heart_sel))
    if n_heart == 0:
        raise AnchorError(f"subject {series.subject_id}: tissue 'heart' is empty")
    counts["heart"] = n_heart
    heart_value = _heart_anchor(series.posts[0].data[heart_sel], heart_rule)

    return AnchorSet(
        subject_id=series.subject_id,
        v_air=medians["air"],
        v_fat=medians["fat"],
        v_dense=medians["dense"],
        v_heart=heart_value,
        source_counts=counts,
    )
