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
first post and Slast the last post. Standard deviations everywhere are
population standard deviations (divide by n).

A feature whose source label is missing is reported as missing, never
silently zero; in CSV output missing features are empty fields.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import MissingInputError, ValidationError
from .manifest import StudySeries
from .volume import DENSE, FAT, TUMOR, TissueMask, Volume, median_filter
from .util import atomic_write_text, check_csv_header, check_csv_row

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


def _dynamic_range(series: StudySeries) -> float:
    lo = min(float(v.data.min()) for v in series.volumes)
    hi = max(float(v.data.max()) for v in series.volumes)
    return hi - lo


def _epsilon(series: StudySeries) -> float:
    return 1e-6 * _dynamic_range(series)


def ser_map(series: StudySeries) -> Volume:
    """Voxelwise signal enhancement ratio (S1 - S0) / (Slast - S0).

    Voxels whose denominator magnitude does not exceed eps are set to
    0; their count is logged at debug level. The inclusive comparison
    keeps an all-constant series (eps of 0) at ratio 0 instead of 0/0.
    """
    if len(series.posts) < 2:
        raise ValidationError(
            f"subject {series.subject_id}: enhancement ratio needs at least 2 post volumes"
        )
    eps = _epsilon(series)
    s0 = series.pre.data.astype(np.float64)
    s1 = series.posts[0].data.astype(np.float64)
    slast = series.posts[-1].data.astype(np.float64)
    denom = slast - s0
    guarded = np.abs(denom) <= eps
    n_guarded = int(np.count_nonzero(guarded))
    if n_guarded:
        log.debug("subject %s: %d voxels guarded in enhancement ratio", series.subject_id, n_guarded)
    safe = np.where(guarded, 1.0, denom)
    out = np.where(guarded, 0.0, (s1 - s0) / safe)
    return Volume(out.astype(np.float32), series.spacing_mm, "ser")


def washin_map(series: StudySeries) -> Volume:
    """Voxelwise washin (S1 - S0) / max(S0, eps)."""
    eps = _epsilon(series)
    s0 = series.pre.data.astype(np.float64)
    s1 = series.posts[0].data.astype(np.float64)
    denom = np.maximum(s0, eps)
    if eps <= 0:
        # Constant series: every denominator is 0, define the map as 0.
        return Volume(np.zeros_like(s0, dtype=np.float32), series.spacing_mm, "washin")
    out = (s1 - s0) / denom
    return Volume(out.astype(np.float32), series.spacing_mm, "washin")


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
    sub = series.posts[0].data.astype(np.float64) - series.pre.data.astype(np.float64)
    nz, ny, nx = sub.shape
    gx = np.gradient(sub, axis=2) if nx > 1 else np.zeros_like(sub)
    gy = np.gradient(sub, axis=1) if ny > 1 else np.zeros_like(sub)
    mag = np.hypot(gx[tumor], gy[tumor])
    if not (mag > 0).any():
        log.warning("subject %s: all tumor gradients are zero", series.subject_id)
        return 0.0
    theta = np.mod(np.arctan2(gy[tumor], gx[tumor]), np.pi)
    bins = np.minimum((theta * (DHOG_BINS / np.pi)).astype(np.int64), DHOG_BINS - 1)
    hist = np.bincount(bins, weights=mag, minlength=DHOG_BINS)
    return _entropy_bits(hist)


def major_axis_length(tumor: np.ndarray, spacing_mm) -> float:
    """4 * sqrt of the largest eigenvalue of the voxel-coordinate covariance.

    Coordinates are voxel centers in millimeters. Needs at least two
    tumor voxels.
    """
    coords_idx = np.argwhere(tumor)  # rows of (z, y, x)
    if coords_idx.shape[0] < 2:
        raise ValidationError(f"major axis needs >= 2 tumor voxels, got {coords_idx.shape[0]}")
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
    if mask.dims != series.dims:
        raise ValidationError(
            f"subject {series.subject_id}: mask dims {mask.dims} do not match series {series.dims}"
        )

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

    ser = ser_map(work).data if have_ser else None
    washin = washin_map(work).data
    post1 = work.posts[0].data

    if have_tissue:
        if ser is not None:
            mean_ser, std_ser = _stats(ser[tissue])
            values["F1"] = mean_ser
            values["F6"] = std_ser
        values["F3"] = _stats(washin[tissue])[0]
        values["F7"] = pe_entropy(washin, tissue)
    else:
        log.warning("subject %s: no healthy dense tissue, tissue features missing", series.subject_id)

    if have_tumor:
        if ser is not None:
            values["F2"] = _stats(ser[tumor])[0]
        values["F4"], values["F5"] = _stats(washin[tumor])
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
    path = Path(path)
    if not path.exists():
        raise MissingInputError("features file not found", path=path)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        expected = {"subject_id", *FEATURE_NAMES, "denoised", "normalized"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ValidationError(f"unexpected feature CSV header: {reader.fieldnames}", path=path)
        check_csv_header(reader.fieldnames, path)
        rows = []
        for record in reader:
            subject = record["subject_id"]
            check_csv_row(record, subject, path)
            values = {}
            for name in FEATURE_NAMES:
                cell = record[name]
                try:
                    values[name] = float(cell) if cell != "" else None
                except ValueError:
                    raise ValidationError(
                        f"subject {subject!r}: column {name} is not a number: {cell!r}", path=path
                    ) from None
            rows.append(
                FeatureVector(
                    subject_id=subject,
                    values=values,
                    denoised=record["denoised"] == "1",
                    normalized=record["normalized"] == "1",
                )
            )
    return rows
