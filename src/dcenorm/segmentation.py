"""Classical fallback segmentation of air, breast, dense tissue and heart.

These stages are deliberately simple threshold-and-morphology
heuristics. Downstream anchor extraction only consumes order statistics
of each tissue, which tolerates moderate boundary errors, so the goal
here is robustness and determinism rather than voxel-perfect contours.

Conventions: volumes are indexed ``data[z, y, x]`` and y = 0 is the
anterior side, so the breast occupies low y and the heart sits at
higher y behind the chest-wall plane.

``scipy.ndimage`` is imported inside the functions that call it, so
importing this module (and through it the command line) does not pay
for it; only runs of the classical chain do.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import SegmentationError, ValidationError
from .manifest import StudySeries
from .util import is_number
from .volume import AIR, DENSE, FAT, HEART, TUMOR, TissueMask, Volume, percentile

log = logging.getLogger(__name__)

# 26-connectivity in 3D: every voxel touching by face, edge or corner.
_CONN26 = np.ones((3, 3, 3), dtype=bool)

OTSU_BINS = 256


@dataclass
class SegmentationConfig:
    """Tunable parameters of the classical pipeline.

    air_fraction
        Fraction of the darkest voxels selected as the air tissue.
    heart_enhancement_percentile
        Percentile of the subtraction image (first post minus pre) above
        which voxels are heart candidates.
    dense_polarity
        "dark" means dense tissue is the lower-intensity of the two
        intensity classes inside the breast (the usual situation in
        non-fat-suppressed T1 imaging where fat is bright); "bright"
        flips the assignment for fat-suppressed acquisitions.
    min_component_voxels
        Connected components smaller than this are discarded.
    morphology_radius
        Radius of the cubic structuring element used for closing.
    """

    air_fraction: float = 0.05
    heart_enhancement_percentile: float = 99.0
    dense_polarity: str = "dark"
    min_component_voxels: int = 500
    morphology_radius: int = 1

    def __post_init__(self):
        if not (is_number(self.air_fraction) and 0.0 < self.air_fraction < 1.0):
            raise ValidationError(f"air_fraction must be a number in (0, 1), got {self.air_fraction!r}")
        pct = self.heart_enhancement_percentile
        if not (is_number(pct) and 0.0 < pct <= 100.0):
            raise ValidationError(f"heart_enhancement_percentile must be a number in (0, 100], got {pct!r}")
        if self.dense_polarity not in ("dark", "bright"):
            raise ValidationError(f"dense_polarity must be 'dark' or 'bright', got {self.dense_polarity!r}")
        voxels, radius = self.min_component_voxels, self.morphology_radius
        if not (is_number(voxels, Integral) and voxels >= 1):
            raise ValidationError(f"min_component_voxels must be an integer >= 1, got {voxels!r}")
        if not (is_number(radius, Integral) and radius >= 0):
            raise ValidationError(f"morphology_radius must be an integer >= 0, got {radius!r}")


def otsu_upper_class(values: np.ndarray, bins: int = OTSU_BINS) -> np.ndarray | None:
    """Split values at the Otsu threshold of a fixed-bin histogram.

    Returns a boolean array marking the upper-intensity class, or None
    when the histogram is degenerate (constant input, or no split with
    two non-empty classes). Values are binned over [min, max] into
    ``bins`` equal bins and both the histogram and the class assignment
    use the same bin indices, so the split is exactly reproducible.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValidationError("otsu split of an empty selection")
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return None
    idx = np.floor((values.astype(np.float64) - lo) * (bins / (hi - lo))).astype(np.int64)
    np.clip(idx, 0, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins).astype(np.float64)

    # Between-class variance for every split "bin <= t vs bin > t",
    # with bin indices standing in for intensities (the argmax is
    # invariant under that affine substitution).
    centers = np.arange(bins, dtype=np.float64)
    w0 = np.cumsum(counts)[:-1]
    w1 = counts.sum() - w0
    m0 = np.cumsum(counts * centers)[:-1]
    m1 = (counts * centers).sum() - m0
    valid = (w0 > 0) & (w1 > 0)
    if not valid.any():
        return None
    variance = np.zeros(bins - 1)
    variance[valid] = w0[valid] * w1[valid] * (m0[valid] / w0[valid] - m1[valid] / w1[valid]) ** 2
    t = int(np.argmax(variance))
    if variance[t] <= 0:
        return None
    return idx.reshape(values.shape) > t


def segment_air(pre: Volume, config: SegmentationConfig) -> np.ndarray:
    """Select the darkest ``air_fraction`` of the pre-contrast volume.

    Ties at the threshold value are all included, so the result can be
    slightly larger than the nominal fraction; a constant volume comes
    back fully selected.
    """
    threshold = percentile(pre, config.air_fraction * 100.0)
    return pre.data <= threshold


def body_mask(pre: Volume) -> np.ndarray:
    """Voxels above the global air/tissue separation threshold.

    Uses an Otsu split of the whole volume rather than the air-fraction
    percentile: the air fraction is a prevalence convention for the air
    anchor, not a separator, and fails whenever the actual air fraction
    differs from it. Returns an all-False array when the volume has no
    separable structure.
    """
    upper = otsu_upper_class(pre.data.ravel())
    if upper is None:
        return np.zeros(pre.data.shape, dtype=bool)
    return upper.reshape(pre.data.shape)


def chest_wall_planes(body: np.ndarray) -> np.ndarray:
    """Per-slice chest-wall y coordinate.

    For each axial slice the plane is the posterior-most row whose
    body-voxel count exceeds half the slice's maximal row count; rows
    at or anterior of the plane are breast territory, rows behind it
    are heart search territory. Slices without body voxels get -1.
    """
    if body.ndim != 3:
        raise ValidationError("body mask must be 3D")
    runs = body.sum(axis=2)  # (nz, ny)
    max_run = runs.max(axis=1)
    wide = runs > (max_run[:, None] / 2.0)
    ny = body.shape[1]
    reversed_any = wide[:, ::-1]
    last = ny - 1 - np.argmax(reversed_any, axis=1)
    planes = np.where(wide.any(axis=1), last, -1)
    return planes.astype(np.int64)


def _bounding_box(mask: np.ndarray, margin: int) -> tuple[slice, ...] | None:
    """Per-axis extent of ``mask``'s voxels widened by ``margin`` and clipped to the grid.

    Returns None for an empty mask.
    """
    box = []
    for axis in range(mask.ndim):
        others = tuple(a for a in range(mask.ndim) if a != axis)
        hits = np.flatnonzero(mask.any(axis=others))
        if hits.size == 0:
            return None
        box.append(slice(max(int(hits[0]) - margin, 0), min(int(hits[-1]) + 1 + margin, mask.shape[axis])))
    return tuple(box)


def _drop_small_components(mask: np.ndarray, min_voxels: int) -> np.ndarray:
    from scipy import ndimage

    # Every component lies inside the bounding box, and labels are
    # numbered in scan order, which the box keeps.
    box = _bounding_box(mask, 0)
    if box is None:
        return mask
    labeled, _ = ndimage.label(mask[box], structure=_CONN26)
    sizes = np.bincount(labeled.ravel())
    keep = sizes >= min_voxels
    keep[0] = False
    kept = np.zeros(mask.shape, dtype=bool)
    kept[box] = keep[labeled]
    return kept


def segment_breast(
    pre: Volume, body: np.ndarray, planes: np.ndarray, config: SegmentationConfig
) -> np.ndarray:
    """Body voxels anterior of the chest-wall plane, cleaned up.

    ``body`` is the subject's ``body_mask(pre)`` and ``planes`` its
    ``chest_wall_planes(body)``. Applies morphological
    closing with a cubic structuring element and removes connected
    components below ``min_component_voxels``. Raises SegmentationError
    when nothing survives.

    Both steps run on the candidate's bounding box, which is a small
    part of a clinical grid, and give the full-volume result exactly.
    The closing's box is widened by the element's radius r: the
    dilation never reaches further than r past the candidate, so it
    fits in the box, and where the erosion's element crosses a face of
    the box it reads the zeros that lie beyond it in the full volume,
    which is what ``border_value=0`` supplies. No component crosses the
    labelling's box, and labels keep their scan order inside it.
    """
    from scipy import ndimage

    if body.shape != pre.data.shape:
        raise ValidationError("body mask shape does not match volume")
    if not body.any():
        raise SegmentationError("no body voxels above the air threshold")
    yy = np.arange(body.shape[1])[None, :, None]
    anterior = yy <= planes[:, None, None]
    candidate = body & anterior
    if config.morphology_radius > 0:
        side = 2 * config.morphology_radius + 1
        structure = np.ones((side, side, side), dtype=bool)
        # Never None: each slice's chest-wall row holds body voxels.
        box = _bounding_box(candidate, config.morphology_radius)
        closed = np.zeros(candidate.shape, dtype=bool)
        closed[box] = ndimage.binary_closing(candidate[box], structure=structure)
        candidate = closed
    candidate = _drop_small_components(candidate, config.min_component_voxels)
    if not candidate.any():
        raise SegmentationError("breast segmentation produced an empty mask")
    return candidate


def segment_dense(pre: Volume, breast: np.ndarray, config: SegmentationConfig) -> np.ndarray:
    """Split breast voxels into dense and fat classes by Otsu threshold.

    Returns the dense subset; fat is the remainder of the breast. With a
    degenerate histogram the dense set is empty and a warning is logged,
    leaving the whole breast classified as fat.
    """
    if breast.shape != pre.data.shape:
        raise ValidationError("breast mask shape does not match volume")
    if not breast.any():
        raise ValidationError("dense segmentation needs a non-empty breast mask")
    values = pre.data[breast]
    upper = otsu_upper_class(values)
    dense = np.zeros(pre.data.shape, dtype=bool)
    if upper is None:
        log.warning("degenerate intensity histogram inside breast; dense set left empty")
        return dense
    selected = ~upper if config.dense_polarity == "dark" else upper
    dense[breast] = selected
    return dense


def segment_heart(
    pre: Volume, post1: Volume, body: np.ndarray, planes: np.ndarray, config: SegmentationConfig
) -> np.ndarray:
    """Largest strongly-enhancing component behind the chest wall.

    ``body`` and ``planes`` are as in ``segment_breast``.

    Candidates are body voxels whose subtraction value (first post minus
    pre) reaches the configured percentile of the whole subtraction
    image, restricted to rows behind the per-slice chest-wall plane.
    The largest 26-connected candidate component is returned; failure
    (no enhancement anywhere, or a component below the size floor) is
    an error so callers can skip the subject explicitly.

    Components are labelled on the candidates' bounding box only. That
    is exact: no component crosses the box, and labels keep their scan
    order inside it, so ties for the largest resolve as on the full grid.
    """
    from scipy import ndimage

    if post1.dims != pre.dims:
        raise ValidationError("pre and post volumes disagree on dims")
    if body.shape != pre.data.shape:
        raise ValidationError("body mask shape does not match volume")
    sub = post1.data.astype(np.float64) - pre.data.astype(np.float64)
    if not (sub > 0).any():
        raise SegmentationError("subtraction image shows no enhancement")
    threshold = percentile(sub, config.heart_enhancement_percentile)
    yy = np.arange(body.shape[1])[None, :, None]
    posterior = yy > planes[:, None, None]
    candidate = body & posterior & (sub >= threshold)
    box = _bounding_box(candidate, 0)
    if box is None:
        raise SegmentationError("no heart candidates behind the chest wall")
    labeled, _ = ndimage.label(candidate[box], structure=_CONN26)
    sizes = np.bincount(labeled.ravel())
    sizes[0] = 0
    best = int(np.argmax(sizes))
    if sizes[best] < config.min_component_voxels:
        raise SegmentationError(
            f"largest enhancing component has {int(sizes[best])} voxels, "
            f"below the floor of {config.min_component_voxels}"
        )
    heart = np.zeros(candidate.shape, dtype=bool)
    heart[box] = labeled == best
    return heart


def assemble_mask(
    air: np.ndarray,
    fat: np.ndarray,
    dense: np.ndarray,
    heart: np.ndarray,
    tumor: np.ndarray,
    spacing_mm,
) -> TissueMask:
    """Combine per-tissue voxel sets into one label volume.

    Overlaps resolve by precedence tumor > heart > dense > fat > air;
    anything unclaimed stays background.
    """
    shape = air.shape
    for name, arr in (("fat", fat), ("dense", dense), ("heart", heart), ("tumor", tumor)):
        if arr.shape != shape:
            raise ValidationError(f"{name} mask shape {arr.shape} does not match {shape}")
    labels = np.zeros(shape, dtype=np.uint8)
    labels[air] = AIR
    labels[fat] = FAT
    labels[dense] = DENSE
    labels[heart] = HEART
    labels[tumor] = TUMOR
    return TissueMask(labels, spacing_mm)


def classical_mask(series: StudySeries, config: SegmentationConfig) -> TissueMask:
    """Run the full classical pipeline for one subject.

    No tumor stage exists here; tumor labels only enter through an
    externally supplied mask.
    """
    pre = series.pre
    air = segment_air(pre, config)
    body = body_mask(pre)
    planes = chest_wall_planes(body)
    breast = segment_breast(pre, body, planes, config)
    dense = segment_dense(pre, breast, config)
    fat = breast & ~dense
    heart = segment_heart(pre, series.posts[0], body, planes, config)
    tumor = np.zeros(pre.data.shape, dtype=bool)
    return assemble_mask(air, fat, dense, heart, tumor, series.spacing_mm)
