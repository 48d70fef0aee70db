"""Per-subject kinetic and morphological features.

Fifteen scalars are extracted per subject.

    F1   mean signal enhancement ratio over dense
    F2   mean signal enhancement ratio over tumor
    F3   mean washin over dense
    F4   mean washin over tumor
    F5   std of washin over tumor
    F6   std of signal enhancement ratio over dense
    F7   entropy of percent enhancement over dense
    F8   entropy of the gradient-orientation histogram at tumor voxels
    F9   tumor major axis length in mm (mask only)
    F10  mean of the first post volume over fat
    F11  std of the first post volume over fat
    F12  mean of the first post volume over dense
    F13  std of the first post volume over dense
    F14  mean of the first post volume over tumor
    F15  std of the first post volume over tumor

The signal enhancement ratio at a voxel is (S1 - S0) / (Slast - S0) and
washin is (S1 - S0) / max(S0, eps), where S0 is pre-contrast, S1 the
first post and Slast the last post, and eps is 1e-6 of the whole
series' dynamic range, taken before any filtering. Extraction evaluates
both only at dense and tumor voxels, the only ones F1-F7 read.
Standard deviations everywhere are population standard deviations
(divide by n).

``extract_features`` takes a subject's mask and its volumes, which it
draws one at a time. Each volume is let go before the next one loads.
It gives the range that ``Volume`` took as it loaded, for eps, and the
values the features read. The pre-contrast volume is read at dense and
tumor and on the tumor's gradient box, the first post there and at fat,
the last post at dense and tumor; a middle post gives only its range.

With a median filter (``denoise_radius``) the features read the filtered
series, but only the voxels they read are filtered: the box of each
volume's read set, widened by the radius. The filtered volume is kept
on the grid, holding the filtered values on its read box and 0 outside
it, so every read indexes the grid as an unfiltered read does.

A feature whose source label is missing is reported as missing, never
silently zero; in CSV output missing features are empty fields.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .volume import DENSE, FAT, TUMOR, TissueMask, Volume, bounding_box, check_same_grid, median_filter, widen
from .util import binary_cell, read_csv_records, write_csv

log = logging.getLogger(__name__)

FEATURE_NAMES = tuple(f"F{i}" for i in range(1, 16))

PE_BINS = 64
DHOG_BINS = 9


@dataclass(frozen=True)
class FeatureVector:
    subject_id: str
    values: dict[str, float | None]
    denoised: bool = False
    normalized: bool = False

    def __post_init__(self):
        missing = [n for n in FEATURE_NAMES if n not in self.values]
        if missing:
            raise ValidationError(f"feature vector is missing entries: {missing}")


def ser_map(s0: np.ndarray, s1: np.ndarray, slast: np.ndarray, eps: float) -> tuple[np.ndarray, int]:
    """Signal enhancement ratio (S1 - S0) / (Slast - S0) per element, and the number of guarded elements.

    The three arrays share one shape, which the float32 result takes;
    the arithmetic is float64. Elements whose denominator magnitude does
    not exceed eps are 0 and are counted. The inclusive comparison keeps
    an all-constant series (eps of 0) at ratio 0 instead of 0/0. The map
    is pointwise, so values gathered at some voxels map to the whole
    grid's values there, in the same order.
    """
    s0 = s0.astype(np.float64)
    denom = slast.astype(np.float64) - s0
    guarded = np.abs(denom) <= eps
    safe = np.where(guarded, 1.0, denom)
    out = np.where(guarded, 0.0, (s1.astype(np.float64) - s0) / safe).astype(np.float32)
    return out, int(np.count_nonzero(guarded))


def washin_map(s0: np.ndarray, s1: np.ndarray, eps: float) -> np.ndarray:
    """Washin (S1 - S0) / max(S0, eps) per element, as float32 of the arrays' shape.

    Pointwise and float64 inside, as ``ser_map``. An eps of 0 (a constant
    series) gives 0 everywhere.
    """
    if eps <= 0:
        return np.zeros(s0.shape, dtype=np.float32)
    s0 = s0.astype(np.float64)
    return ((s1.astype(np.float64) - s0) / np.maximum(s0, eps)).astype(np.float32)


def _entropy_bits(weights: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        return 0.0
    p = weights[weights > 0] / total
    return float(-(p * np.log2(p)).sum())


def pe_entropy(washin: np.ndarray, tissue: np.ndarray) -> float:
    """Shannon entropy (bits) of percent enhancement over a tissue set.

    Percent enhancement is 100 times washin. Values are histogrammed
    into 64 equal bins spanning [min, max]; a degenerate span gives 0.
    """
    if not tissue.any():
        raise ValidationError("percent enhancement entropy of an empty tissue set")
    pe = 100.0 * washin[tissue].astype(np.float64)
    lo = float(pe.min())
    hi = float(pe.max())
    if hi == lo:
        return 0.0
    counts, _ = np.histogram(pe, bins=PE_BINS, range=(lo, hi))
    return _entropy_bits(counts.astype(np.float64))


_Box = tuple[slice, slice, slice]


def _gradient_box(tumor: np.ndarray) -> _Box:
    """The box of the voxels that ``dhog`` reads for a non-empty ``tumor``.

    It is the tumor's box, widened by one voxel in y and x and clipped at
    the grid: it holds every neighbour a difference at a tumor voxel
    reads and keeps the grid's own faces, so each gradient there is the
    grid's.
    """
    return widen(bounding_box(tumor), (0, 1, 1), tumor.shape)


def dhog(pre: np.ndarray, post1: np.ndarray, tumor: np.ndarray, subject_id: str) -> float:
    """Entropy of the in-plane gradient direction histogram at the tumor.

    ``pre``, ``post1`` and ``tumor`` are grids of one shape. Gradients
    of the subtraction image (first post minus pre) are taken with
    central differences inside each axial slice (one-sided at the
    volume faces). Orientations are folded to [0, 180) degrees and
    accumulated into 9 bins weighted by gradient magnitude; the result
    is the Shannon entropy in bits of that histogram. All-zero
    gradients give 0 with a warning naming ``subject_id``.
    """
    if not tumor.any():
        raise ValidationError("gradient histogram of an empty tumor set")
    _, ny, nx = pre.shape
    box = _gradient_box(tumor)
    sub = post1[box].astype(np.float64) - pre[box].astype(np.float64)
    gx = np.gradient(sub, axis=2) if nx > 1 else np.zeros_like(sub)
    gy = np.gradient(sub, axis=1) if ny > 1 else np.zeros_like(sub)
    inside = tumor[box]
    mag = np.hypot(gx[inside], gy[inside])
    if not (mag > 0).any():
        log.warning("subject %s: all tumor gradients are zero", subject_id)
        return 0.0
    theta = np.mod(np.arctan2(gy[inside], gx[inside]), np.pi)
    bins = np.minimum((theta * (DHOG_BINS / np.pi)).astype(np.int64), DHOG_BINS - 1)
    hist = np.bincount(bins, weights=mag, minlength=DHOG_BINS)
    return _entropy_bits(hist)


def major_axis_length(tumor: np.ndarray, spacing_mm) -> float:
    """4 * sqrt of the largest eigenvalue of the voxel-coordinate covariance.

    Coordinates are voxel centers in millimeters. Needs at least two
    tumor voxels.
    """
    n = int(np.count_nonzero(tumor))
    if n < 2:
        raise ValidationError(f"major axis needs >= 2 tumor voxels, got {n}")
    box = bounding_box(tumor)
    coords_idx = np.argwhere(tumor[box]) + [s.start for s in box]  # rows of (z, y, x)
    sx, sy, sz = spacing_mm
    coords = coords_idx[:, ::-1].astype(np.float64) * np.array([sx, sy, sz])
    cov = np.cov(coords, rowvar=False, bias=True)
    largest = float(np.linalg.eigvalsh(cov).max())
    return 4.0 * math.sqrt(max(largest, 0.0))


def _stats(values: np.ndarray) -> tuple[float, float]:
    v = values.astype(np.float64)
    return float(v.mean()), float(v.std())


def _union(*boxes: _Box | None) -> _Box | None:
    """The smallest box holding every given box; None stands for no box."""
    boxes = [b for b in boxes if b is not None]
    if not boxes:
        return None
    return tuple(slice(min(b[axis].start for b in boxes), max(b[axis].stop for b in boxes)) for axis in range(3))


def _filtered(volume: Volume, box: _Box, radius: int) -> np.ndarray:
    """``median_filter(volume, radius).data`` on ``box``, and 0 on the rest of the grid.

    Filters the box widened by ``radius`` and clipped to the grid, and
    keeps the box. The window of a box voxel lies in the widened box, or
    is clipped by a grid face that the widened box shares, so it holds
    the same values in the same places as in the whole-grid filter, and
    so does its median. A read outside the box would get 0 in place of
    a filtered value; ``extract_features`` names the tests that rule
    that out. The result is a plain float32 array: its values are
    medians of finite data, so it needs no finiteness scan.
    """
    outer = widen(box, (radius,) * 3, volume.data.shape)
    filtered = median_filter(Volume(volume.data[outer], volume.spacing_mm), radius).data
    data = np.zeros_like(volume.data)
    data[box] = filtered[tuple(slice(b.start - o.start, b.stop - o.start) for b, o in zip(box, outer))]
    return data


def extract_features(
    subject_id: str,
    mask: TissueMask,
    volumes: Iterable[Volume],
    n_posts: int,
    denoise_radius: int | None = None,
    normalized: bool = False,
) -> FeatureVector:
    """Compute the full feature vector of subject ``subject_id`` from ``volumes``: pre, then ``n_posts`` posts.

    Each volume must be on ``mask``'s grid. Each is checked against it
    and read once, as it is drawn, and let go before the next is drawn,
    so a caller that loads each volume as it is drawn holds one at a time.
    A volume gives its ``value_range``, which it took when it was made,
    for eps, and the values the features read from it: pre-contrast its
    dense and tumor voxels and the tumor's gradient box, the first post
    those and its fat voxels, the last post its dense and tumor voxels.
    Middle posts give only their range, so no voxel of theirs is read.

    Features whose source labels are absent come back as None. F9 is
    mask-only. F1-F7 come from ``ser_map`` and ``washin_map`` run on the
    gathered dense and tumor voxels; the count of guarded SER voxels
    among them is logged at debug level, naming the subject. F12-F15 are
    the stats of the first-post values gathered there, and F8 is ``dhog``
    on the gradient boxes of pre and the first post.

    With ``denoise_radius`` set, the features read the series with
    every volume median filtered, bit for bit, but each read volume is
    filtered only on the box of the voxels read from it, through
    ``_filtered``, and read as an unfiltered one is.
    ``TestGatheredExtraction``, ``TestDenoisedScenes`` and
    ``test_denoising_filters_only_the_read_boxes`` compare with
    whole-grid filtering, so a read outside a box fails them. eps is
    that of the unfiltered series, as without the filter.
    """
    sid = subject_id
    dense = mask.tissue(DENSE)
    fat = mask.tissue(FAT)
    tumor = mask.tissue(TUMOR)
    kinetic = dense | tumor

    have_dense = bool(dense.any())
    have_tumor = bool(tumor.any())
    have_fat = bool(fat.any())
    have_ser = n_posts >= 2
    del dense  # of the voxel sets, only fat and tumor are held while the volumes load

    # The volumes read, by their index in the series: pre, the first post
    # and, for SER, the last post. With a filter each is filtered on the
    # box it is read on, and one without a box gives no value, so it is
    # not read.
    reads = [0, 1, n_posts] if have_ser else [0, 1]
    gradient_box = _gradient_box(tumor) if have_tumor else None
    if denoise_radius is not None:
        kinetic_box = bounding_box(kinetic)
        pre_box, post1_box = _union(kinetic_box, gradient_box), _union(bounding_box(fat | kinetic), gradient_box)
        boxes = dict(zip(reads, (pre_box, post1_box, kinetic_box)))
        reads = [index for index in reads if boxes[index] is not None]

    # F1-F7, F12 and F13 read dense and tumor voxels alone, so the kernels
    # run on those voxels, gathered in C order by one flat index: they
    # are pointwise, so that gives the values whole-grid maps hold there,
    # in the same order. A mask holds one label per voxel, so the voxels
    # of dense | tumor that are not tumor are the dense ones.
    voxels = np.flatnonzero(kinetic)
    in_tumor = tumor[kinetic]
    in_dense = ~in_tumor
    del kinetic
    gathered, crops = {}, {}
    fat_values = None
    lo, hi = math.inf, -math.inf
    # Drawn by index, not through enumerate, whose reused result tuple
    # would keep each volume until the next one has loaded.
    volumes = iter(volumes)
    for index in range(n_posts + 1):
        volume = next(volumes)
        check_same_grid(mask, volume, f"subject {sid}: mask and series")
        lo, hi = min(lo, volume.value_range[0]), max(hi, volume.value_range[1])
        if index in reads:
            data = volume.data if denoise_radius is None else _filtered(volume, boxes[index], denoise_radius)
            gathered[index] = data.reshape(-1)[voxels]
            if index < 2 and have_tumor:
                crops[index] = data[gradient_box].copy()
            if index == 1 and have_fat:
                fat_values = data[fat]
            del data
        del volume  # not held while the next volume loads
    eps = 1e-6 * (hi - lo)

    values: dict[str, float | None] = {name: None for name in FEATURE_NAMES}

    if have_dense or have_tumor:
        s0, s1 = gathered[0], gathered[1]
        ser = None
        if have_ser:
            ser, n_guarded = ser_map(s0, s1, gathered[n_posts], eps)
            if n_guarded:
                log.debug("subject %s: %d voxels guarded in enhancement ratio", sid, n_guarded)
        washin = washin_map(s0, s1, eps)

    if have_dense:
        if ser is not None:
            values["F1"], values["F6"] = _stats(ser[in_dense])
        values["F3"] = _stats(washin[in_dense])[0]
        values["F7"] = pe_entropy(washin, in_dense)
        values["F12"], values["F13"] = _stats(s1[in_dense])
    else:
        log.warning("subject %s: no dense label, dense features missing", sid)

    if have_tumor:
        if ser is not None:
            values["F2"] = _stats(ser[in_tumor])[0]
        values["F4"], values["F5"] = _stats(washin[in_tumor])
        values["F8"] = dhog(crops[0], crops[1], tumor[gradient_box], sid)
        if int(np.count_nonzero(tumor)) >= 2:
            values["F9"] = major_axis_length(tumor, mask.spacing_mm)
        else:
            log.warning("subject %s: single-voxel tumor, major axis missing", sid)
        values["F14"], values["F15"] = _stats(s1[in_tumor])
    else:
        log.warning("subject %s: no tumor label, tumor features missing", sid)

    if have_fat:
        values["F10"], values["F11"] = _stats(fat_values)
    else:
        log.warning("subject %s: no fat label, fat features missing", sid)

    return FeatureVector(
        subject_id=sid,
        values=values,
        denoised=denoise_radius is not None,
        normalized=normalized,
    )


def write_features_csv(path: Path | str, rows: list[FeatureVector]) -> None:
    """Write feature vectors to CSV; missing features become empty fields."""
    cells = ([row.subject_id, *(row.values[n] for n in FEATURE_NAMES), row.denoised, row.normalized] for row in rows)
    write_csv(path, ["subject_id", *FEATURE_NAMES, "denoised", "normalized"], cells)


def read_features_csv(path: Path | str) -> list[FeatureVector]:
    columns = ("subject_id", *FEATURE_NAMES, "denoised", "normalized")
    rows = []
    for subject, record in read_csv_records(path, columns, "features CSV"):
        values = {}
        for name in FEATURE_NAMES:
            cell = record[name]
            try:
                value = float(cell) if cell != "" else None
            except ValueError:
                value = math.nan
            # float() also reads "nan" and "inf", which no feature takes.
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"subject {subject!r}: column {name} is not a finite number: {cell!r}", path=path)
            values[name] = value
        rows.append(
            FeatureVector(
                subject_id=subject,
                values=values,
                denoised=bool(binary_cell(record, "denoised", subject, path)),
                normalized=bool(binary_cell(record, "normalized", subject, path)),
            )
        )
    return rows
