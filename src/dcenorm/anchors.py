"""Per-subject anchor intensities for the four reference tissues.

Air, fat and dense anchors are nearest-rank medians of the pre-contrast
volume inside the corresponding label. The heart anchor is the 90th
percentile of the first post-contrast volume inside the heart label,
read high in the distribution because heart intensity is too
inhomogeneous for a median to be stable there. The rule is fixed, so a
model's targets and every subject it maps are measured the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SubjectError, ValidationError
from .manifest import StudySeries
from .volume import AIR, DENSE, FAT, HEART, TissueMask, check_same_grid, percentile

TISSUES = ("air", "fat", "dense", "heart")


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


def extract_anchors(series: StudySeries, mask: TissueMask) -> AnchorSet:
    """Compute the four anchor intensities for one subject.

    Raises SubjectError naming the tissue when a label is empty; callers
    decide whether that skips the subject or aborts.
    """
    check_same_grid(mask, series, f"subject {series.subject_id}: mask and series")

    pre, post1 = series.pre, series.posts[0]
    counts: dict[str, int] = {}
    values: dict[str, float] = {}
    for tissue, code, volume, q in (
        ("air", AIR, pre, 50.0), ("fat", FAT, pre, 50.0), ("dense", DENSE, pre, 50.0), ("heart", HEART, post1, 90.0),
    ):
        selected = mask.tissue(code)
        n = int(np.count_nonzero(selected))
        if n == 0:
            raise SubjectError(f"subject {series.subject_id}: tissue {tissue!r} is empty")
        counts[tissue] = n
        values[tissue] = percentile(volume, q, mask=selected)

    return AnchorSet(series.subject_id, *(values[t] for t in TISSUES), source_counts=counts)
