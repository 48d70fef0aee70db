"""Per-subject anchor intensities for the four reference tissues.

Air, fat and dense anchors are nearest-rank medians of the pre-contrast
volume inside the corresponding label. The heart anchor is the
nearest-rank p90 of the first post-contrast volume inside the heart label,
read high in the distribution because heart intensity is too
inhomogeneous for a median to be stable there. The rule is fixed, so a
model's targets and every subject it maps are measured the same way.
No two tissues of a subject may share an anchor value, and no two of a
model may share a target: ``shared_value`` finds such a pair for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import SubjectError, ValidationError
from .manifest import StudySeries
from .volume import AIR, DENSE, FAT, HEART, TissueMask, _SCAN_BLOCK, _kth_smallest, check_same_grid, nearest_rank_index

TISSUES = ("air", "fat", "dense", "heart")


def shared_value(values: Mapping[str, float]) -> tuple[str, str, float] | None:
    """The first two tissues of ``values`` that share a value, in ascending order of value; None when all differ.

    Tied tissues keep ``TISSUES`` order, so the pair named is the one a map's control points would collide at.
    """
    ordered = sorted(TISSUES, key=values.__getitem__)
    for t0, t1 in zip(ordered, ordered[1:]):
        if values[t0] == values[t1]:
            return t0, t1, values[t0]
    return None


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
        shared = shared_value(self.values())
        if shared is not None:
            t0, t1, value = shared
            raise SubjectError(f"subject {self.subject_id}: tissues {t0!r} and {t1!r} share anchor value {value}")

    def values(self) -> dict[str, float]:
        return {t: getattr(self, f"v_{t}") for t in TISSUES}


def extract_anchors(series: StudySeries, mask: TissueMask) -> AnchorSet:
    """Compute the four anchor intensities for one subject.

    Each tissue is counted over blocks of ``_SCAN_BLOCK`` labels, then ``volume._kth_smallest`` reads the
    volume's values at the tissue's labels a block at a time; only a tissue of at most ``volume._SAMPLE``
    voxels is read in one slice, with a boolean of the whole grid.

    Raises SubjectError naming the tissue when a label is empty, or the
    two tissues when two anchors share a value; callers decide whether
    that skips the subject or aborts.
    """
    check_same_grid(mask, series, f"subject {series.subject_id}: mask and series")

    labels, pre, post1 = mask.labels.reshape(-1), series.pre.data.reshape(-1), series.posts[0].data.reshape(-1)
    counts: dict[str, int] = {}
    values: dict[str, float] = {}
    for tissue, code, data, q in (
        ("air", AIR, pre, 50.0), ("fat", FAT, pre, 50.0), ("dense", DENSE, pre, 50.0), ("heart", HEART, post1, 90.0),
    ):
        blocks = (labels[start : start + _SCAN_BLOCK] for start in range(0, labels.size, _SCAN_BLOCK))
        count = sum(int(np.count_nonzero(block == code)) for block in blocks)
        if count == 0:
            raise SubjectError(f"subject {series.subject_id}: tissue {tissue!r} is empty")
        counts[tissue] = count
        values[tissue] = _kth_smallest(lambda s: data[s][labels[s] == code], labels.size, count, nearest_rank_index(count, q))

    return AnchorSet(series.subject_id, *(values[t] for t in TISSUES), source_counts=counts)
