"""Classical fallback segmentation of air, breast, dense tissue and heart.

These stages are deliberately simple threshold-and-morphology
heuristics. Downstream anchor extraction only consumes order statistics
of each tissue, which tolerates moderate boundary errors, so the goal
here is robustness and determinism rather than voxel-perfect contours.

Conventions: volumes are indexed ``data[z, y, x]`` and y = 0 is the
anterior side, so the breast occupies low y and the heart sits at
higher y behind the chest-wall plane.

The chain needs numpy only. Its two morphology kernels, a binary
closing with a cubic element and 26-connected component labelling, are
private helpers here (``_closing``, ``_label``). Each is exact, not an
approximation: the closing is the textbook one with the grid's outside
read as 0, and the labels number the components in the scan order of
their first voxels, as the common image libraries do. The tests compare
both, element for element, with such a library.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import SubjectError, ValidationError
from .manifest import StudySeries
from .util import is_number
from .volume import AIR, DENSE, FAT, HEART, TUMOR, TissueMask, Volume, bounding_box, check_same_grid, percentile, widen

log = logging.getLogger(__name__)

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


def otsu_upper_class(values: np.ndarray) -> np.ndarray | None:
    """Split values at the Otsu threshold of a fixed-bin histogram.

    Returns a boolean array marking the upper-intensity class, or None
    when the histogram is degenerate (constant input, or no split with
    two non-empty classes). Values are binned over [min, max] into
    ``OTSU_BINS`` equal bins and both the histogram and the class
    assignment use the same bin indices, so the split is exactly
    reproducible.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValidationError("otsu split of an empty selection")
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return None
    idx = np.floor((values.astype(np.float64) - lo) * (OTSU_BINS / (hi - lo))).astype(np.int64)
    np.clip(idx, 0, OTSU_BINS - 1, out=idx)
    counts = np.bincount(idx, minlength=OTSU_BINS).astype(np.float64)

    # Between-class variance for every split "bin <= t vs bin > t",
    # with bin indices standing in for intensities (the argmax is
    # invariant under that affine substitution).
    centers = np.arange(OTSU_BINS, dtype=np.float64)
    w0 = np.cumsum(counts)[:-1]
    w1 = counts.sum() - w0
    m0 = np.cumsum(counts * centers)[:-1]
    m1 = (counts * centers).sum() - m0
    valid = (w0 > 0) & (w1 > 0)
    if not valid.any():
        return None
    variance = np.zeros(OTSU_BINS - 1)
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


def _closing(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary closing of a 3-D mask with a cubic element of side ``2 * radius + 1``.

    Voxels beyond the array count as 0, as with ``border_value=0``. The
    cube is the product of three segments, so its dilation and its
    erosion are each three 1-D passes, one per axis, of ``radius`` shifted
    ORs or ANDs in each direction. Where the eroding segment reaches past
    a face it reads a 0, so the erosion clears the ``radius`` voxels at
    each face.
    """
    out = mask.copy()
    for combine in (np.logical_or, np.logical_and):
        for axis in range(3):
            src = np.moveaxis(out.copy(), axis, 0)
            dst = np.moveaxis(out, axis, 0)
            for shift in range(1, radius + 1):
                combine(dst[shift:], src[:-shift], out=dst[shift:])
                combine(dst[:-shift], src[shift:], out=dst[:-shift])
            if combine is np.logical_and:
                dst[:radius] = False
                dst[len(dst) - radius :] = False
    return out


# Rows (dz, dy) after row (z, y) in scan order that hold 26-neighbours of its voxels.
_FORWARD_ROWS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """26-connected components of a 3-D mask, numbered 1, 2, ... in scan order.

    Returns the int32 label array and the number of components.

    The mask is cut into runs along x, numbered in scan order. Two runs
    touch when their rows are 26-neighbours and their x ranges overlap
    once one is widened by a voxel on each side, so each run's
    neighbours in a forward row are a contiguous range of run numbers,
    read off prefix counts of run starts and run ends. Every pair joins
    a later run to an earlier one, so the first union hooks each run
    under the earliest run it touches. A union-find then points every
    run at its root and hooks the larger of two roots under the smaller,
    until no pair has two roots. Each root is then the smallest run
    number of its component, whose first voxel in scan order is the
    component's, so ranking the roots numbers the components in scan
    order.
    """
    nz, ny, nx = mask.shape
    # An empty row before and after each slice's rows, and an empty slice
    # after the last, give every run all four forward rows.
    padded = np.zeros((nz + 1, ny + 2, nx), dtype=bool)
    padded[:nz, 1 : ny + 1] = mask
    rows = padded.reshape(-1, nx)
    first = rows.copy()
    first[:, 1:] &= ~rows[:, :-1]
    last = rows.copy()
    last[:, :-1] &= ~rows[:, 1:]
    index = np.int32 if rows.size < 2**31 else np.int64
    # Runs started at or before each flat position, and runs ended before it.
    started = np.cumsum(first.ravel(), dtype=index)
    ended = np.concatenate((np.zeros(1, index), np.cumsum(last.ravel(), dtype=index)))
    n_runs = int(started[-1])
    labels = np.zeros(mask.shape, dtype=np.int32)
    if n_runs == 0:
        return labels, 0
    start = np.flatnonzero(first).astype(index)
    stop = np.flatnonzero(last).astype(index) + 1
    # The run widened by a voxel on each side, within its row.
    left = start - (start % nx != 0)
    right = stop - (stop % nx == 0)

    runs = np.arange(n_runs, dtype=index)
    pairs_a, pairs_b = [], []
    for dz, dy in _FORWARD_ROWS:
        offset = (dz * (ny + 2) + dy) * nx
        lo = ended[left + offset]
        count = started[right + offset] - lo
        pairs_a.append(np.repeat(runs, count))
        # Run i's pairs sit at block_start[i] onwards and name lo[i], lo[i] + 1, ...
        block_start = np.cumsum(count, dtype=index) - count
        pairs_b.append(np.repeat(lo - block_start, count) + np.arange(pairs_a[-1].size, dtype=index))
    a, b = np.concatenate(pairs_a), np.concatenate(pairs_b)
    parent = runs.copy()
    np.minimum.at(parent, b, a)
    while True:
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        root_a, root_b = parent[a], parent[b]
        differ = root_a != root_b
        if not differ.any():
            break
        a, b, root_a, root_b = a[differ], b[differ], root_a[differ], root_b[differ]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
    rank = np.cumsum(parent == runs, dtype=np.int32)
    labels[mask] = np.repeat(rank[parent], stop - start)
    return labels, int(rank[-1])


def _drop_small_components(mask: np.ndarray, min_voxels: int) -> np.ndarray:
    # Every component lies inside the bounding box, and labels are
    # numbered in scan order, which the box keeps.
    box = bounding_box(mask)
    if box is None:
        return mask
    labeled, _ = _label(mask[box])
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
    closing with a cubic structuring element and removes 26-connected
    components below ``min_component_voxels``. Raises SubjectError
    when nothing survives.

    The closing (``_closing``) is a dilation then an erosion, each
    done as shifted ORs or ANDs along z, y and x; that is exact because
    the cubic element is the product of three segments. The components
    come from run-based labelling (``_label``), whose sizes are exact
    voxel counts.

    Both steps run on the candidate's bounding box, which is a small
    part of a clinical grid, and give the full-volume result exactly.
    The closing's box is widened by the element's radius r: the
    dilation never reaches further than r past the candidate, so it
    fits in the box, and where the erosion's element crosses a face of
    the box it reads the zeros that lie beyond it in the full volume,
    which is what the closing reads beyond the grid. No component
    crosses the labelling's box, and labels keep their scan order
    inside it.
    """
    if body.shape != pre.data.shape:
        raise ValidationError("body mask shape does not match volume")
    if not body.any():
        raise SubjectError("no body voxels above the air threshold")
    yy = np.arange(body.shape[1])[None, :, None]
    anterior = yy <= planes[:, None, None]
    candidate = body & anterior
    if config.morphology_radius > 0:
        # Never None: each slice's chest-wall row holds body voxels.
        box = widen(bounding_box(candidate), (config.morphology_radius,) * 3, candidate.shape)
        closed = np.zeros(candidate.shape, dtype=bool)
        closed[box] = _closing(candidate[box], config.morphology_radius)
        candidate = closed
    candidate = _drop_small_components(candidate, config.min_component_voxels)
    if not candidate.any():
        raise SubjectError("breast segmentation produced an empty mask")
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

    Components are labelled by ``_label``, which numbers them in the
    scan order of their first voxels, so a tie for the largest goes to
    the component that comes first in scan order. They are labelled on
    the candidates' bounding box only. That is exact: no component
    crosses the box, and labels keep their scan order inside it, so ties
    resolve as on the full grid.
    """
    check_same_grid(post1, pre, "post1 and pre")
    if body.shape != pre.data.shape:
        raise ValidationError("body mask shape does not match volume")
    sub = post1.data.astype(np.float64) - pre.data.astype(np.float64)
    if not (sub > 0).any():
        raise SubjectError("subtraction image shows no enhancement")
    threshold = percentile(sub, config.heart_enhancement_percentile)
    yy = np.arange(body.shape[1])[None, :, None]
    posterior = yy > planes[:, None, None]
    candidate = body & posterior & (sub >= threshold)
    box = bounding_box(candidate)
    if box is None:
        raise SubjectError("no heart candidates behind the chest wall")
    labeled, _ = _label(candidate[box])
    sizes = np.bincount(labeled.ravel())
    sizes[0] = 0
    best = int(np.argmax(sizes))
    if sizes[best] < config.min_component_voxels:
        raise SubjectError(
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
