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
first post and Slast the last post. Extraction evaluates both only at
tissue and tumor voxels, the only ones F1-F7 read; eps still comes
from the whole series' dynamic range. Standard deviations everywhere
are population standard deviations (divide by n).

A feature whose source label is missing is reported as missing, never
silently zero; in CSV output missing features are empty fields.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import MaskError, ValidationError
from .manifest import StudySeries
from .volume import DENSE, FAT, TUMOR, TissueMask, Volume, bounding_box, check_same_grid, median_filter
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


def _dynamic_range(series: StudySeries) -> float:
    lo, hi = math.inf, -math.inf
    for volume in series.volumes:
        flat = volume.data.reshape(-1)
        for start in range(0, flat.size, _RANGE_BLOCK_VOXELS):
            block = flat[start : start + _RANGE_BLOCK_VOXELS]
            lo = min(lo, float(block.min()))
            hi = max(hi, float(block.max()))
    return hi - lo


def _epsilon(series: StudySeries) -> float:
    return 1e-6 * _dynamic_range(series)


def _values(volume: Volume, voxels: np.ndarray | None) -> np.ndarray:
    """Float64 copy of the grid, or of its values at flat C-order ``voxels``."""
    data = volume.data if voxels is None else volume.data.reshape(-1)[voxels]
    return data.astype(np.float64)


def ser_map(
    series: StudySeries, voxels: np.ndarray | None = None, eps: float | None = None
) -> Volume | np.ndarray:
    """Voxelwise signal enhancement ratio (S1 - S0) / (Slast - S0).

    Voxels whose denominator magnitude does not exceed eps are set to
    0; their count is logged at debug level. The inclusive comparison
    keeps an all-constant series (eps of 0) at ratio 0 instead of 0/0.

    By default the whole grid is mapped into a Volume. With ``voxels``,
    flat C-order indices into the grid, the ratio is evaluated only at
    those voxels and returned as a float32 array in their order, and
    the guarded count covers only them. ``eps`` defaults to 1e-6 of the
    whole series' dynamic range; pass it to skip that scan.
    """
    if len(series.posts) < 2:
        raise ValidationError(
            f"subject {series.subject_id}: enhancement ratio needs at least 2 post volumes"
        )
    if eps is None:
        eps = _epsilon(series)
    s0 = _values(series.pre, voxels)
    s1 = _values(series.posts[0], voxels)
    slast = _values(series.posts[-1], voxels)
    denom = slast - s0
    guarded = np.abs(denom) <= eps
    n_guarded = int(np.count_nonzero(guarded))
    if n_guarded:
        log.debug("subject %s: %d voxels guarded in enhancement ratio", series.subject_id, n_guarded)
    safe = np.where(guarded, 1.0, denom)
    out = np.where(guarded, 0.0, (s1 - s0) / safe).astype(np.float32)
    return out if voxels is not None else Volume(out, series.spacing_mm, "ser")


def washin_map(
    series: StudySeries, voxels: np.ndarray | None = None, eps: float | None = None
) -> Volume | np.ndarray:
    """Voxelwise washin (S1 - S0) / max(S0, eps).

    ``voxels`` and ``eps`` work as in ``ser_map``: with ``voxels`` the
    result is a float32 array of washin at those voxels only.
    """
    if eps is None:
        eps = _epsilon(series)
    s0 = _values(series.pre, voxels)
    if eps <= 0:
        # Constant series: every denominator is 0, define the map as 0.
        out = np.zeros_like(s0, dtype=np.float32)
    else:
        s1 = _values(series.posts[0], voxels)
        out = ((s1 - s0) / np.maximum(s0, eps)).astype(np.float32)
    return out if voxels is not None else Volume(out, series.spacing_mm, "washin")


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
    # The tumor's box, widened by one voxel in y and x and clipped at the
    # grid, holds every neighbour a difference at a tumor voxel reads and
    # keeps the grid's own faces, so each gradient there is the grid's.
    bz, by, bx = bounding_box(tumor)
    box = (
        bz,
        slice(max(by.start - 1, 0), min(by.stop + 1, ny)),
        slice(max(bx.start - 1, 0), min(bx.stop + 1, nx)),
    )
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


def extract_features(
    series: StudySeries,
    mask: TissueMask,
    denoise_radius: int | None = None,
    normalized: bool = False,
) -> FeatureVector:
    """Compute the full feature vector for one subject.

    With ``denoise_radius`` set, every intensity volume is median
    filtered before any map or statistic is computed; F9 is mask-only
    and unaffected. Features whose source labels are absent come back
    as None.
    """
    check_same_grid(mask, series, f"subject {series.subject_id}: mask and series", MaskError)

    work = series
    if denoise_radius is not None:
        work = replace(
            series,
            pre=median_filter(series.pre, denoise_radius),
            posts=tuple(median_filter(p, denoise_radius) for p in series.posts),
        )

    dense = mask.tissue(DENSE)
    fat = mask.tissue(FAT)
    tumor = mask.tissue(TUMOR)
    tissue = dense & ~tumor

    have_tissue = bool(tissue.any())
    have_tumor = bool(tumor.any())
    have_fat = bool(fat.any())
    have_dense = bool(dense.any())
    have_ser = len(work.posts) >= 2

    values: dict[str, float | None] = {name: None for name in FEATURE_NAMES}

    # F1-F7 read SER and washin only at tissue and tumor voxels, so the
    # maps are evaluated there alone, in C order: the same values in the
    # same order as indexing whole-grid maps. eps still comes from the
    # whole series, scanned once for both maps.
    eps = _epsilon(work)
    voxels = np.flatnonzero(tissue | tumor)
    in_tissue = tissue.reshape(-1)[voxels]
    in_tumor = tumor.reshape(-1)[voxels]
    ser = ser_map(work, voxels, eps) if have_ser else None
    washin = washin_map(work, voxels, eps)
    post1 = work.posts[0].data

    if have_tissue:
        if ser is not None:
            mean_ser, std_ser = _stats(ser[in_tissue])
            values["F1"] = mean_ser
            values["F6"] = std_ser
        values["F3"] = _stats(washin[in_tissue])[0]
        values["F7"] = pe_entropy(washin, in_tissue)
    else:
        log.warning("subject %s: no healthy dense tissue, tissue features missing", series.subject_id)

    if have_tumor:
        if ser is not None:
            values["F2"] = _stats(ser[in_tumor])[0]
        values["F4"], values["F5"] = _stats(washin[in_tumor])
        values["F8"] = dhog(work, tumor)
        if int(np.count_nonzero(tumor)) >= 2:
            values["F9"] = major_axis_length(tumor, series.spacing_mm)
        else:
            log.warning("subject %s: single-voxel tumor, major axis missing", series.subject_id)
        values["F14"], values["F15"] = _stats(post1[tumor])
    else:
        log.warning("subject %s: no tumor label, tumor features missing", series.subject_id)

    if have_fat:
        values["F10"], values["F11"] = _stats(post1[fat])
    else:
        log.warning("subject %s: no fat label, fat features missing", series.subject_id)

    if have_dense:
        values["F12"], values["F13"] = _stats(post1[dense])
    else:
        log.warning("subject %s: no dense label, dense features missing", series.subject_id)

    return FeatureVector(
        subject_id=series.subject_id,
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
