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

``classical_mask`` holds pre, the uint8 label grid and the body mask
throughout, and post1 only while the heart stage runs. Each stage adds
about one byte grid: the air selection, the Otsu bin indices, the breast
candidate, the dense set or the heart. Everything else is block- or
box-sized: the two percentile thresholds are taken by
``volume._kth_smallest``, which reads blocks and forms no copy, and
components are labelled and painted as runs along x (``_label``,
``_paint``), with no label grid. So the chain peaks at two volumes and
three byte grids, 11 bytes a voxel, plus about 2 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator

import numpy as np

from .errors import SubjectError, ValidationError
from .util import is_number
from .volume import (
    AIR, DENSE, FAT, HEART, TUMOR, TissueMask, Volume, bounding_box, check_same_grid, nearest_rank_index, percentile,
    _SCAN_BLOCK, _kth_smallest, widen,
)

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

    Returns a boolean array of ``values``' shape marking the
    upper-intensity class, or None when the histogram is degenerate
    (constant input, or no split with two non-empty classes). Values are
    binned over [min, max] into ``OTSU_BINS`` equal bins and both the
    histogram and the class assignment use the same bin indices, so the
    split is exactly reproducible.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValidationError("otsu split of an empty selection")
    return _otsu_split(values, float(values.min()), float(values.max()))


def _otsu_split(values: np.ndarray, lo: float, hi: float) -> np.ndarray | None:
    """``otsu_upper_class`` of non-empty ``values`` whose min and max are ``lo`` and ``hi``.

    The bin indices are computed in float64 blocks of ``_SCAN_BLOCK`` values into one uint8 array, and the
    histogram adds up each block's counts, so working memory is that array plus the block temporaries.
    """
    if hi == lo:
        return None
    flat = values.reshape(-1)
    idx = np.empty(flat.shape, dtype=np.uint8)
    counts = np.zeros(OTSU_BINS, dtype=np.int64)
    scale = OTSU_BINS / (hi - lo)
    for start in range(0, flat.size, _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
        bins = np.floor((flat[block].astype(np.float64) - lo) * scale)
        np.minimum(bins, OTSU_BINS - 1, out=bins)  # the maximum lands in the last bin
        idx[block] = bins
        counts += np.bincount(idx[block], minlength=OTSU_BINS)
    counts = counts.astype(np.float64)

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
    return (idx > t).reshape(values.shape)


def segment_air(pre: Volume, config: SegmentationConfig) -> np.ndarray:
    """Select the darkest ``air_fraction`` of the pre-contrast volume.

    Ties at the threshold value are all included, so the result can be
    slightly larger than the nominal fraction; a constant volume comes
    back fully selected. The threshold is ``volume.percentile``'s
    nearest-rank one, which forms no copy of the grid.
    """
    return pre.data <= percentile(pre.data, 100 * config.air_fraction)


def body_mask(pre: Volume) -> np.ndarray:
    """Voxels above the global air/tissue separation threshold.

    Uses an Otsu split of the whole volume rather than the air-fraction
    percentile: the air fraction is a prevalence convention for the air
    anchor, not a separator, and fails whenever the actual air fraction
    differs from it. Returns an all-False array when the volume has no
    separable structure. It is binned over ``pre.value_range``: no second min and max scan.
    """
    upper = _otsu_split(pre.data, *pre.value_range)
    return np.zeros(pre.data.shape, dtype=bool) if upper is None else upper


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


def _label(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """26-connected components of a 3-D mask, as runs along x numbered in scan order.

    Returns ``(start, stop, label, count)``: each run's first and
    one-past-last flat index in the C order of ``mask``'s shape, the
    component label of each run, 1 to ``count``, and the number of
    components. ``_paint`` writes runs into a grid.

    The runs are read in z-slabs of about ``_SCAN_BLOCK`` voxels, as the
    rises and falls of each row, and numbered in scan order. Two runs
    touch when their rows are 26-neighbours and their x ranges overlap
    once one is widened by a voxel on each side, so each run's
    neighbours in a forward row are a contiguous range of run numbers,
    found by ``np.searchsorted`` over the runs' starts and stops. Those
    are keyed by the row they would have with an empty row before and
    after each slice's rows, so that no range reaches into another row.
    Every pair joins a later run to an earlier one, so the first union
    hooks each run under the earliest run it touches. A union-find then
    points every run at its root and hooks the larger of two roots under
    the smaller, until no pair has two roots. Each root is then the
    smallest run number of its component, whose first voxel in scan
    order is the component's, so ranking the roots numbers the
    components in scan order. Working memory is a few arrays of one
    entry per run.
    """
    nz, ny, nx = mask.shape
    step = max(1, _SCAN_BLOCK // (ny * nx))
    starts, stops = [], []
    for z in range(0, nz, step):
        rows = mask[z : z + step].reshape(-1, nx)
        # A row's rises and falls alternate, a rise first: each run's start, then its stop.
        row, x = np.divmod(np.flatnonzero(np.diff(rows, axis=1, prepend=False, append=False)), nx + 1)
        flat = (row + z * ny) * nx + x
        starts.append(flat[0::2])
        stops.append(flat[1::2])
    start, stop = np.concatenate(starts), np.concatenate(stops)
    n_runs = start.size
    if n_runs == 0:
        return start, stop, np.zeros(0, dtype=np.int32), 0
    # Keys in the grid of rows padded by an empty row on each side of a slice's rows.
    shift = (2 * (start // (ny * nx)) + 1) * nx
    start_key, stop_key = start + shift, stop + shift
    # The run widened by a voxel on each side, within its row.
    left = start_key - (start % nx != 0)
    right = stop_key + (stop % nx != 0)

    runs = np.arange(n_runs)
    pairs_a, pairs_b = [], []
    for dz, dy in _FORWARD_ROWS:
        offset = (dz * (ny + 2) + dy) * nx
        lo = np.searchsorted(stop_key, left + offset, side="right")
        count = np.searchsorted(start_key, right + offset, side="left") - lo
        pairs_a.append(np.repeat(runs, count))
        # Run i's pairs sit at block_start[i] onwards and name lo[i], lo[i] + 1, ...
        block_start = np.cumsum(count) - count
        pairs_b.append(np.repeat(lo - block_start, count) + np.arange(pairs_a[-1].size))
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
    return start, stop, rank[parent], int(rank[-1])


def _paint(grid: np.ndarray, box: tuple[slice, slice, slice], start: np.ndarray, stop: np.ndarray, value) -> None:
    """Set the runs ``start:stop`` of ``grid[box]``, flat indices in the box's C order as ``_label`` gives them, to ``value``.

    ``grid`` must be C-contiguous. The voxel indices are formed for about
    ``_SCAN_BLOCK`` voxels at a time.
    """
    if start.size == 0:
        return
    _, ny, nx = grid.shape
    by, bx = box[1].stop - box[1].start, box[2].stop - box[2].start
    corner = (box[0].start * ny + box[1].start) * nx + box[2].start
    row = start // bx
    # A box row (z, y) starts at grid index corner + (z * ny + y) * nx.
    first = corner + ((row // by) * ny + row % by) * nx + start % bx
    length = stop - start
    ends = np.cumsum(length)
    cuts = np.searchsorted(ends, np.arange(_SCAN_BLOCK, int(ends[-1]), _SCAN_BLOCK), side="right")
    bounds = [0, *cuts, start.size]
    flat = grid.reshape(-1)
    for a, b in zip(bounds, bounds[1:]):
        n = length[a:b]
        # Run i's voxels sit at offsets cumsum(n)[i] - n[i] onwards of the chunk's index array.
        flat[np.repeat(first[a:b] - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))] = value


def _drop_small_components(mask: np.ndarray, min_voxels: int) -> np.ndarray:
    """Clear, in place, the 26-connected components of the C-contiguous ``mask`` below ``min_voxels``; return ``mask``.

    Every component lies inside the bounding box, where it is labelled.
    """
    box = bounding_box(mask)
    if box is None:
        return mask
    start, stop, label, _ = _label(mask[box])
    sizes = np.bincount(label, weights=stop - start)
    small = (sizes < min_voxels)[label]
    _paint(mask, box, start[small], stop[small], False)
    return mask


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

    The candidate is one copy of ``body`` with each slice's rows behind
    its plane cleared. The closing is written back into its box, and
    small components are cleared from it run by run, so the stage holds
    one byte grid besides box-sized temporaries.
    """
    if body.shape != pre.data.shape:
        raise ValidationError("body mask shape does not match volume")
    if not body.any():
        raise SubjectError("no body voxels above the air threshold")
    candidate = body.copy()
    for z, plane in enumerate(planes):
        candidate[z, plane + 1 :] = False
    if config.morphology_radius > 0:
        # Never None: each slice's chest-wall row holds body voxels.
        box = widen(bounding_box(candidate), (config.morphology_radius,) * 3, candidate.shape)
        candidate[box] = _closing(candidate[box], config.morphology_radius)
    _drop_small_components(candidate, config.min_component_voxels)
    if not candidate.any():
        raise SubjectError("breast segmentation produced an empty mask")
    return candidate


def segment_dense(pre: Volume, breast: np.ndarray, config: SegmentationConfig) -> np.ndarray:
    """Split breast voxels into dense and fat classes by Otsu threshold.

    Returns the dense subset; fat is the remainder of the breast. A
    degenerate histogram, which would leave the dense set empty, raises
    SubjectError: every anchor needs its tissue.
    """
    if breast.shape != pre.data.shape:
        raise ValidationError("breast mask shape does not match volume")
    if not breast.any():
        raise ValidationError("dense segmentation needs a non-empty breast mask")
    values = pre.data[breast]
    upper = otsu_upper_class(values)
    if upper is None:
        raise SubjectError("degenerate intensity histogram inside breast")
    dense = np.zeros(pre.data.shape, dtype=bool)
    selected = ~upper if config.dense_polarity == "dark" else upper
    dense[breast] = selected
    return dense


def _enhancement_threshold(pre: Volume, post1: Volume, q: float) -> float:
    """The nearest-rank ``q``-th percentile of the float64 subtraction image post1 - pre, as ``volume.percentile`` takes it.

    No subtraction grid is formed: ``volume._kth_smallest``, the selector
    behind ``percentile``, reads the float64 differences block by block,
    which gives the float64 percentile directly. A zero threshold may
    come back as -0.0; the threshold is only compared (``>=``) and never
    written, so that cannot change a mask. Raises SubjectError when no
    voxel enhances, which a scan of pre and post1 that stops at the
    first block with an enhancing voxel decides.
    """
    pre_flat, post_flat = pre.data.reshape(-1), post1.data.reshape(-1)
    n = pre_flat.size
    blocks = (slice(start, start + _SCAN_BLOCK) for start in range(0, n, _SCAN_BLOCK))
    if not any(np.any(post_flat[block] > pre_flat[block]) for block in blocks):
        raise SubjectError("subtraction image shows no enhancement")
    k = nearest_rank_index(n, q)
    return _kth_smallest(lambda s: np.subtract(post_flat[s], pre_flat[s], dtype=np.float64), n, n, k)


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

    The threshold is taken by ``_enhancement_threshold`` from blocks of
    the float64 subtraction image. The candidates are then found on the
    outer box: the slices and rows behind the chest wall that hold body
    voxels, across the full width. There they are formed in z-slabs of
    about ``_SCAN_BLOCK`` voxels, the subtraction again in float64, into
    one byte array of the box.

    Components are labelled by ``_label``, which numbers them in the
    scan order of their first voxels, so a tie for the largest goes to
    the component that comes first in scan order. They are labelled on
    the candidates' bounding box only. That is exact: no component
    crosses the box, and labels keep their scan order inside it, so ties
    resolve as on the full grid. The candidates are let go before the
    heart's runs are painted into the grid returned.
    """
    check_same_grid(post1, pre, "post1 and pre")
    if body.shape != pre.data.shape:
        raise ValidationError("body mask shape does not match volume")
    threshold = _enhancement_threshold(pre, post1, config.heart_enhancement_percentile)
    # Rows behind each slice's plane that hold body voxels: a voxel is behind the chest wall where its row is one.
    rows = body.any(axis=2) & (np.arange(body.shape[1]) > planes[:, None])
    zs, ys = np.flatnonzero(rows.any(axis=1)), np.flatnonzero(rows.any(axis=0))
    box = None
    if zs.size:
        z0, y0 = int(zs[0]), int(ys[0])
        z1, y1 = int(zs[-1]) + 1, int(ys[-1]) + 1
        near = np.empty((z1 - z0, y1 - y0, body.shape[2]), dtype=bool)
        step = max(1, _SCAN_BLOCK // near[0].size)
        for z in range(z0, z1, step):
            slab = (slice(z, min(z + step, z1)), slice(y0, y1))
            out = near[z - z0 : slab[0].stop - z0]
            np.greater_equal(np.subtract(post1.data[slab], pre.data[slab], dtype=np.float64), threshold, out=out)
            out &= body[slab]
            out &= rows[slab][:, :, None]
        del out  # a view, which would keep the candidates alive
        box = bounding_box(near)
    if box is None:
        raise SubjectError("no heart candidates behind the chest wall")
    start, stop, label, _ = _label(near[box])
    del near
    sizes = np.bincount(label, weights=stop - start)
    best = int(np.argmax(sizes))
    if sizes[best] < config.min_component_voxels:
        raise SubjectError(
            f"largest enhancing component has {int(sizes[best])} voxels, "
            f"below the floor of {config.min_component_voxels}"
        )
    heart = np.zeros(body.shape, dtype=bool)
    in_grid = (slice(z0 + box[0].start, z0 + box[0].stop), slice(y0 + box[1].start, y0 + box[1].stop), box[2])
    keep = label == best
    _paint(heart, in_grid, start[keep], stop[keep], True)
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


def classical_mask(volumes: Iterable[Volume], config: SegmentationConfig) -> TissueMask:
    """Run the full classical pipeline for one subject, given its volumes in order: pre, then post1.

    ``volumes`` may be a generator. Pre is drawn first and post1 only
    after the dense stage, when the heart stage needs it; no later
    volume is drawn. Each stage writes its labels as it finishes, in
    ``assemble_mask``'s order of precedence (air, then fat and dense,
    then heart), so a later label overrides an earlier one as there, and
    no stage's voxel set is held past its stage but the body mask, which
    the heart stage reads too. Dense tissue lies inside the breast, so
    labelling the breast fat and then its dense voxels dense gives fat
    the breast minus dense. No tumor stage exists here; tumor labels
    only enter through an externally supplied mask. The module
    docstring states the working memory this gives.
    """
    volumes = iter(volumes)
    pre = _draw(volumes, "pre")
    labels = np.zeros(pre.data.shape, dtype=np.uint8)
    # The body mask comes first, so that no grid-sized block is freed before
    # its Otsu split allocates two: glibc's malloc raises its mmap threshold to
    # the size of a freed mmapped block, and later grids then land in the heap.
    # With the air selection freed first, 12 MB of freed heap was still
    # resident when post1 loaded, on a 256x256x60 subject.
    body = body_mask(pre)
    labels[segment_air(pre, config)] = AIR
    planes = chest_wall_planes(body)
    breast = segment_breast(pre, body, planes, config)
    dense = segment_dense(pre, breast, config)
    labels[breast] = FAT
    labels[dense] = DENSE
    del breast, dense
    labels[segment_heart(pre, _draw(volumes, "post1"), body, planes, config)] = HEART
    return TissueMask(labels, pre.spacing_mm)


def _draw(volumes: Iterator[Volume], name: str) -> Volume:
    volume = next(volumes, None)
    if volume is None:
        raise ValidationError(f"classical segmentation needs pre and post1; {name} is missing")
    return volume
