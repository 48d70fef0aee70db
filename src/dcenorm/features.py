"""Per-subject kinetic and morphological features.

Fifteen scalars are extracted per subject. "Tissue" below means healthy
dense tissue, the dense label minus any tumor voxels.

    F1   mean signal enhancement ratio over tissue
    F2   mean signal enhancement ratio over tumor
    F3   mean washin over tissue
    F4   mean washin over tumor
    F5   std of washin over tumor
    F6   std of signal enhancement ratio over tissue
    F7   entropy of percent enhancement over tissue
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
both only at tissue and tumor voxels, the only ones F1-F7 read.
Standard deviations everywhere are population standard deviations
(divide by n).

With a median filter (``denoise_radius``) the features read the filtered
series, but only the voxels they read are filtered: the box of each
volume's read set, widened by the radius, and only the box is kept.
The pre-contrast volume is read at tissue and tumor and on the tumor's
gradient box, the first post there and at fat and dense, the last post
at tissue and tumor; middle posts are never read.

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

from .errors import MaskError, ValidationError
from .manifest import StudySeries
from .volume import DENSE, FAT, TUMOR, TissueMask, Volume, bounding_box, check_same_grid, median_filter, widen
from .util import atomic_write_text, binary_cell, read_csv_records

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


# Voxels per block of the dynamic-range scan: 512 KB of float32, so a
# block's max reads what its min left in cache.
_RANGE_BLOCK_VOXELS = 2**17


def _dynamic_range(volumes: Iterable[Volume]) -> float:
    """Max minus min over every voxel of ``volumes``; -inf when there are none."""
    lo, hi = math.inf, -math.inf
    for volume in volumes:
        flat = volume.data.reshape(-1)
        for start in range(0, flat.size, _RANGE_BLOCK_VOXELS):
            block = flat[start : start + _RANGE_BLOCK_VOXELS]
            lo = min(lo, float(block.min()))
            hi = max(hi, float(block.max()))
    return hi - lo


def _epsilon(volumes: Iterable[Volume]) -> float:
    return 1e-6 * _dynamic_range(volumes)


def ser_map(series: StudySeries, eps: float | None = None) -> Volume:
    """Voxelwise signal enhancement ratio (S1 - S0) / (Slast - S0), as a Volume on the series' grid.

    Voxels whose denominator magnitude does not exceed eps are set to
    0; their count is logged at debug level. The inclusive comparison
    keeps an all-constant series (eps of 0) at ratio 0 instead of 0/0.

    ``eps`` defaults to 1e-6 of the series' dynamic range. Pass it to
    skip that scan, or when ``series`` holds only some voxels of the
    series whose eps applies: the map is pointwise, so a series gathered
    at some voxels maps to the values there, in the same order.
    """
    if len(series.posts) < 2:
        raise ValidationError(
            f"subject {series.subject_id}: enhancement ratio needs at least 2 post volumes"
        )
    if eps is None:
        eps = _epsilon(series.volumes)
    s0, s1, slast = (v.data.astype(np.float64) for v in (series.pre, series.posts[0], series.posts[-1]))
    denom = slast - s0
    guarded = np.abs(denom) <= eps
    n_guarded = int(np.count_nonzero(guarded))
    if n_guarded:
        log.debug("subject %s: %d voxels guarded in enhancement ratio", series.subject_id, n_guarded)
    safe = np.where(guarded, 1.0, denom)
    out = np.where(guarded, 0.0, (s1 - s0) / safe).astype(np.float32)
    return Volume(out, series.spacing_mm, "ser")


def washin_map(series: StudySeries, eps: float | None = None) -> Volume:
    """Voxelwise washin (S1 - S0) / max(S0, eps), as a Volume on the series' grid.

    ``eps`` works as in ``ser_map``.
    """
    if eps is None:
        eps = _epsilon(series.volumes)
    s0 = series.pre.data.astype(np.float64)
    if eps <= 0:
        # Constant series: every denominator is 0, define the map as 0.
        out = np.zeros_like(s0, dtype=np.float32)
    else:
        s1 = series.posts[0].data.astype(np.float64)
        out = ((s1 - s0) / np.maximum(s0, eps)).astype(np.float32)
    return Volume(out, series.spacing_mm, "washin")


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


def dhog(series: StudySeries, tumor: np.ndarray) -> float:
    """Entropy of the in-plane gradient direction histogram at the tumor.

    Gradients of the subtraction image (first post minus pre) are taken
    with central differences inside each axial slice (one-sided at the
    volume faces). Orientations are folded to [0, 180) degrees and
    accumulated into 9 bins weighted by gradient magnitude; the result
    is the Shannon entropy in bits of that histogram. All-zero
    gradients give 0 with a warning.
    """
    if not tumor.any():
        raise ValidationError("gradient histogram of an empty tumor set")
    _, ny, nx = series.pre.data.shape
    box = _gradient_box(tumor)
    sub = series.posts[0].data[box].astype(np.float64) - series.pre.data[box].astype(np.float64)
    gx = np.gradient(sub, axis=2) if nx > 1 else np.zeros_like(sub)
    gy = np.gradient(sub, axis=1) if ny > 1 else np.zeros_like(sub)
    inside = tumor[box]
    mag = np.hypot(gx[inside], gy[inside])
    if not (mag > 0).any():
        log.warning("subject %s: all tumor gradients are zero", series.subject_id)
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


def _intersection(*boxes: _Box) -> _Box:
    """The box of the voxels that every given box holds."""
    return tuple(slice(max(b[axis].start for b in boxes), min(b[axis].stop for b in boxes)) for axis in range(3))


def _relative(box: _Box, outer: _Box) -> _Box:
    """``box`` in the coordinates of ``outer``, which must hold it."""
    if not all(o.start <= b.start and b.stop <= o.stop for b, o in zip(box, outer)):
        raise ValueError(f"box {box} is not inside box {outer}")
    return tuple(slice(b.start - o.start, b.stop - o.start) for b, o in zip(box, outer))


@dataclass(frozen=True)
class _Reads:
    """A volume's values on ``box`` of its grid, held as a Volume of the box's shape.

    Reads name grid voxels and raise unless those lie in the box, so no
    read can reach a voxel that was not filtered.
    """

    volume: Volume
    box: _Box

    def crop(self, box: _Box) -> Volume:
        """The values on ``box``, which must lie in this box."""
        if box == self.box:
            return self.volume
        return Volume(self.volume.data[_relative(box, self.box)], self.volume.spacing_mm)

    def at(self, where: np.ndarray) -> np.ndarray:
        """The values at the voxels of the grid-shaped mask ``where``, in C order."""
        values = self.volume.data[where[self.box]]
        if values.size != np.count_nonzero(where):
            raise ValueError(f"voxels read outside box {self.box}")
        return values


def _filtered(volume: Volume, box: _Box | None, radius: int) -> _Reads | None:
    """``median_filter(volume, radius)`` on ``box`` alone; None for no box.

    Filters the box widened by ``radius`` and clipped to the grid, and
    keeps the box. The window of a box voxel lies in the widened box, or
    is clipped by a grid face that the widened box shares, so it holds
    the same values in the same places as in the whole-grid filter, and
    so does its median.
    """
    if box is None:
        return None
    outer = widen(box, (radius,) * 3, volume.data.shape)
    filtered = median_filter(Volume(volume.data[outer], volume.spacing_mm), radius)
    return _Reads(_Reads(filtered, outer).crop(box), box)


def extract_features(
    series: StudySeries,
    mask: TissueMask,
    denoise_radius: int | None = None,
    normalized: bool = False,
) -> FeatureVector:
    """Compute the full feature vector for one subject.

    Features whose source labels are absent come back as None. F9 is
    mask-only.

    With ``denoise_radius`` set, the features read the series with
    every volume median filtered, bit for bit, but each volume is
    filtered only on the box of the voxels read from it, through
    ``_filtered``: pre-contrast on tissue, tumor and the tumor's gradient
    box; the first post on fat, dense, tumor and that gradient box; the
    last post on tissue and tumor; middle posts not at all. A box's
    values equal the whole-grid filter's there, because each window of a
    box voxel lies in the box widened by the radius, or is clipped by the
    grid face that the widened box shares. eps is that of the unfiltered
    series, as without the filter.
    """
    check_same_grid(mask, series, f"subject {series.subject_id}: mask and series", MaskError)
    sid = series.subject_id

    dense = mask.tissue(DENSE)
    fat = mask.tissue(FAT)
    tumor = mask.tissue(TUMOR)
    # Tissue is dense minus tumor, so tissue and tumor together are
    # dense | tumor, and tissue is the part of that which is not tumor.
    kinetic = dense | tumor

    have_tissue = np.count_nonzero(kinetic) > np.count_nonzero(tumor)
    have_tumor = bool(tumor.any())
    have_fat = bool(fat.any())
    have_dense = bool(dense.any())
    have_ser = len(series.posts) >= 2

    read = (series.pre, series.posts[0], series.posts[-1])
    eps = _epsilon(series.volumes)
    if denoise_radius is None:
        whole = tuple(slice(0, n) for n in tumor.shape)
        pre, post1, last = (_Reads(volume, whole) for volume in read)
    else:
        # The boxes that pre, the first post and the last post are read on.
        kinetic_box = bounding_box(kinetic)
        gradient_box = _gradient_box(tumor) if have_tumor else None
        boxes = (
            _union(kinetic_box, gradient_box),
            _union(bounding_box(fat | kinetic), gradient_box),
            kinetic_box if have_ser else None,
        )
        pre, post1, last = (_filtered(volume, box, denoise_radius) for volume, box in zip(read, boxes))

    values: dict[str, float | None] = {name: None for name in FEATURE_NAMES}

    # F1-F7 read SER and washin only at tissue and tumor voxels, so the
    # maps run on those voxels alone, gathered in C order into 1x1xn
    # volumes: the maps are pointwise, so that gives the same values in
    # the same order as indexing whole-grid maps. The voxels are gathered
    # on the box that every volume the maps read holds, which is the
    # whole grid unless the volumes were filtered on boxes; dhog below
    # runs on such a box too.
    if have_tissue or have_tumor:
        reads = (pre, post1, last) if have_ser else (pre, post1)
        box = _intersection(*(r.box for r in reads))
        inside = kinetic[box]
        voxels = np.flatnonzero(inside)
        gathered = [Volume(r.crop(box).data.reshape(-1)[voxels].reshape(1, 1, -1), series.spacing_mm) for r in reads]
        at_voxels = StudySeries(sid, gathered[0], tuple(gathered[1:]))
        in_tumor = tumor[box][inside]
        in_tissue = ~in_tumor
        ser = ser_map(at_voxels, eps).data.reshape(-1) if have_ser else None
        washin = washin_map(at_voxels, eps).data.reshape(-1)

    if have_tissue:
        if ser is not None:
            mean_ser, std_ser = _stats(ser[in_tissue])
            values["F1"] = mean_ser
            values["F6"] = std_ser
        values["F3"] = _stats(washin[in_tissue])[0]
        values["F7"] = pe_entropy(washin, in_tissue)
    else:
        log.warning("subject %s: no healthy dense tissue, tissue features missing", sid)

    if have_tumor:
        if ser is not None:
            values["F2"] = _stats(ser[in_tumor])[0]
        values["F4"], values["F5"] = _stats(washin[in_tumor])
        box = _intersection(pre.box, post1.box)
        values["F8"] = dhog(StudySeries(sid, pre.crop(box), (post1.crop(box),)), tumor[box])
        if int(np.count_nonzero(tumor)) >= 2:
            values["F9"] = major_axis_length(tumor, series.spacing_mm)
        else:
            log.warning("subject %s: single-voxel tumor, major axis missing", sid)
        values["F14"], values["F15"] = _stats(post1.at(tumor))
    else:
        log.warning("subject %s: no tumor label, tumor features missing", sid)

    if have_fat:
        values["F10"], values["F11"] = _stats(post1.at(fat))
    else:
        log.warning("subject %s: no fat label, fat features missing", sid)

    if have_dense:
        values["F12"], values["F13"] = _stats(post1.at(dense))
    else:
        log.warning("subject %s: no dense label, dense features missing", sid)

    return FeatureVector(
        subject_id=sid,
        values=values,
        denoised=denoise_radius is not None,
        normalized=normalized,
    )


def write_features_csv(path: Path | str, rows: list[FeatureVector]) -> None:
    """Write feature vectors to CSV; missing features become empty fields."""
    header = ["subject_id", *FEATURE_NAMES, "denoised", "normalized"]
    lines = [",".join(header)]
    for row in rows:
        cells = [row.subject_id]
        for name in FEATURE_NAMES:
            value = row.values[name]
            cells.append("" if value is None else repr(float(value)))
        cells.append("1" if row.denoised else "0")
        cells.append("1" if row.normalized else "0")
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_features_csv(path: Path | str) -> list[FeatureVector]:
    columns = ("subject_id", *FEATURE_NAMES, "denoised", "normalized")
    rows = []
    seen = set()
    for subject, record in read_csv_records(path, columns, "features CSV"):
        if subject in seen:
            raise ValidationError(f"duplicate subject {subject} in features", path=path)
        seen.add(subject)
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
