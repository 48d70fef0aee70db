"""Volume and tissue-mask containers, raw file I/O, order statistics.

File format
-----------
A volume on disk is a pair of files sharing a base name: ``<name>.json``
(the sidecar) and ``<name>.raw`` (the payload). The sidecar records
``dims`` as ``[nx, ny, nz]``, ``spacing_mm`` as ``[sx, sy, sz]``, the
payload ``dtype`` (``"f32le"`` for intensity volumes, ``"u8"`` for label
masks) and the voxel ``order``, which is always ``"x-fastest"``: the
flat payload index of voxel (x, y, z) is ``x + nx * (y + ny * z)``.

In memory that layout corresponds to a C-contiguous array of shape
``(nz, ny, nx)`` indexed ``data[z, y, x]``. All modules in this package
use that indexing convention. The y axis is the anterior-posterior
axis with y = 0 at the anterior (breast side).

A loaded volume or mask is a read-only view of a mapping of its payload
file, not a copy: its pages are the page cache's, they leave the process
when the grid is let go, and the malloc heap never holds them. So an
input must not be rewritten in place while a grid loaded from it lives.
dcenorm never does so: every output is written to a new file and renamed
into place.

Every order statistic in the package is taken by one selector, ``_kth_smallest``, which reads blocks through
its caller's reader: of a whole array (``percentile``), of a volume at one tissue's labels (the anchors) or of
the float64 subtraction image (the heart threshold).
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import MissingInputError, NonFiniteDataError, ValidationError
from .util import atomic_write_bytes, atomic_write_json, is_number, not_utf8

VOLUME_DTYPE = "f32le"
MASK_DTYPE = "u8"
VOXEL_ORDER = "x-fastest"
_ARRAY_DTYPE = {VOLUME_DTYPE: np.dtype("<f4"), MASK_DTYPE: np.dtype(np.uint8)}

# Tissue label codes used in masks. Background covers anything that is
# none of the named tissues.
BACKGROUND = 0
AIR = 1
FAT = 2
DENSE = 3
HEART = 4
TUMOR = 5

LABEL_NAMES = {
    BACKGROUND: "background",
    AIR: "air",
    FAT: "fat",
    DENSE: "dense",
    HEART: "heart",
    TUMOR: "tumor",
}
MAX_LABEL = TUMOR

# Values per step of the blocked scans: a volume's range, the selector's
# passes, and segmentation's run extraction, painting, enhancement scan and
# heart slabs.
_SCAN_BLOCK = 2**16
# Grid positions in the selector's strided sample, which sets its first bracket.
_SAMPLE = 2**14


def _check_spacing(spacing_mm) -> tuple[float, float, float]:
    spacing = tuple(float(s) for s in spacing_mm)
    if len(spacing) != 3 or any(s <= 0 or not math.isfinite(s) for s in spacing):
        raise ValidationError(f"spacing must be 3 positive finite values, got {spacing_mm}")
    return spacing


@dataclass(frozen=True)
class Volume:
    """A 3D scalar grid with physical voxel spacing.

    ``data`` holds float32 values in a C-contiguous ``(nz, ny, nx)``
    array; the constructor takes ownership and freezes it. All values
    must be finite; as min and max propagate NaN, ``value_range``, the
    data's ``(min, max)``, decides that. It is taken once, by blocks, so
    that each block's max reads what its min left in cache.
    """

    data: np.ndarray
    spacing_mm: tuple[float, float, float]
    modality_tag: str = ""
    value_range: tuple[float, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError(f"volume data must be 3D and non-empty, got shape {arr.shape}")
        flat = arr.reshape(-1)
        blocks = (flat[start : start + _SCAN_BLOCK] for start in range(0, flat.size, _SCAN_BLOCK))
        # Reduced by numpy, not by Python's min and max, which would pass a block's NaN by.
        extremes = np.array([(block.min(), block.max()) for block in blocks])
        lo, hi = float(extremes[:, 0].min()), float(extremes[:, 1].max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NonFiniteDataError("volume contains NaN or infinite values")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "value_range", (lo, hi))
        object.__setattr__(self, "spacing_mm", _check_spacing(self.spacing_mm))

    @property
    def dims(self) -> tuple[int, int, int]:
        """Voxel counts per axis as (nx, ny, nz)."""
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims, spacing_mm, modality_tag: str = "") -> "Volume":
        nx, ny, nz = (int(d) for d in dims)
        arr = np.asarray(flat, dtype=np.float32).reshape(nz, ny, nx)
        return cls(arr, spacing_mm, modality_tag)


@dataclass(frozen=True)
class TissueMask:
    """Integer tissue labels on the same grid convention as Volume."""

    labels: np.ndarray
    spacing_mm: tuple[float, float, float]

    def __post_init__(self):
        arr = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError(f"mask labels must be 3D and non-empty, got shape {arr.shape}")
        # max forms no grid-sized temporary, whose free would raise malloc's mmap threshold to a grid's size
        # and so keep later freed voxel sets on the heap; the offending voxel is found only on failure.
        if arr.max() > MAX_LABEL:
            bad = arr > MAX_LABEL
            raise ValidationError(f"illegal label value {int(arr[bad][0])} (max allowed {MAX_LABEL})")
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "spacing_mm", _check_spacing(self.spacing_mm))

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.labels.shape
        return (nx, ny, nz)

    def tissue(self, label: int) -> np.ndarray:
        """Boolean voxel set for one label code."""
        return self.labels == label

    def counts(self) -> dict[str, int]:
        out = {}
        for code, name in LABEL_NAMES.items():
            out[name] = int(np.count_nonzero(self.labels == code))
        return out


def base_path(path: Path | str) -> Path:
    """Strip a trailing .json or .raw so either file names the volume."""
    path = Path(path)
    if path.suffix in (".json", ".raw"):
        return path.with_suffix("")
    return path


def volume_files(path: Path | str) -> tuple[Path, Path]:
    """Sidecar and payload paths of the volume named by its base name or either file.

    The suffixes are appended, not substituted, so a dotted name such as ``A.1_pre`` keeps its dots.
    """
    base = base_path(path)
    return Path(f"{base}.json"), Path(f"{base}.raw")


@dataclass(frozen=True)
class Sidecar:
    """A volume's checked sidecar: its grid, its modality tag and the path of its payload."""

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    modality_tag: str
    payload_path: Path


def read_sidecar(path: Path | str, expected_dtype: str = VOLUME_DTYPE) -> Sidecar:
    """Read and check the sidecar of the volume named by ``path``, and its payload's size, not its bytes.

    Checks that both files are regular files, that the sidecar is UTF-8 JSON,
    the dims, the spacing, the dtype (which must be ``expected_dtype``), the
    voxel order and the modality tag, which must be a string if given, and
    that the payload holds exactly the bytes the dims require. Only the checks
    on voxel values are left to the loaders.
    """
    sidecar_path, payload_path = volume_files(path)
    for p in (sidecar_path, payload_path):
        if not p.is_file():  # missing, or a directory, or a FIFO that a read would wait on
            raise MissingInputError("volume file is not a regular file" if p.exists() else "volume file not found", path=p)
    try:
        with open(sidecar_path, "r", encoding="utf-8") as handle:
            sidecar = json.load(handle)
    except UnicodeDecodeError as exc:
        raise not_utf8(exc, sidecar_path) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"sidecar is not valid JSON: {exc}", path=sidecar_path) from exc
    if not isinstance(sidecar, dict):
        raise ValidationError("sidecar must be a JSON object", path=sidecar_path)

    dims = sidecar.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or any(not is_number(d, int) or d < 1 for d in dims)
    ):
        raise ValidationError(f"sidecar dims must be 3 positive integers, got {dims!r}", path=sidecar_path)
    spacing = sidecar.get("spacing_mm")
    if not isinstance(spacing, list) or len(spacing) != 3 or not all(is_number(s) and s > 0 for s in spacing):
        raise ValidationError(
            f"sidecar spacing_mm must be 3 positive finite numbers, got {spacing!r}", path=sidecar_path
        )
    dtype = sidecar.get("dtype")
    if dtype != expected_dtype:
        raise ValidationError(
            f"unsupported dtype {dtype!r}, expected {expected_dtype!r}", path=sidecar_path
        )
    order = sidecar.get("order", VOXEL_ORDER)
    if order != VOXEL_ORDER:
        raise ValidationError(f"unsupported voxel order {order!r}", path=sidecar_path)
    tag = sidecar.get("modality_tag", "")
    if not isinstance(tag, str):
        raise ValidationError(f"sidecar modality_tag must be a string, got {tag!r}", path=sidecar_path)

    _check_payload_size(payload_path.stat().st_size, dims, dtype, payload_path)
    return Sidecar(tuple(dims), tuple(float(s) for s in spacing), tag, payload_path)


def _check_payload_size(size: int, dims, dtype: str, payload_path: Path) -> None:
    expected = math.prod(dims) * _ARRAY_DTYPE[dtype].itemsize
    if size != expected:
        raise ValidationError(f"payload is {size} bytes, dims {list(dims)} require {expected}", path=payload_path)


def _mapped_payload(sidecar: Sidecar, dtype: str) -> np.ndarray:
    """The payload of a checked sidecar as a flat read-only array over a read-only mapping of the file.

    The size is checked again on the open file, so a payload truncated or
    extended since ``read_sidecar`` is the same ValidationError, not a
    shape error. The mapping lives as long as the array, and any view of it.
    """
    with open(sidecar.payload_path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        _check_payload_size(size, sidecar.dims, dtype, sidecar.payload_path)
        payload = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_READ)
    return np.frombuffer(payload, dtype=_ARRAY_DTYPE[dtype])


def _save_pair(path: Path | str, grid: Volume | TissueMask, dtype: str, payload: np.ndarray, **extra) -> Path:
    """Write the array ``payload``'s buffer, then the sidecar, both atomically; return the sidecar path.

    The buffer is written as it is, with no bytes copy of the grid.
    """
    sidecar_path, payload_path = volume_files(path)
    sidecar = {
        "dims": list(grid.dims),
        "spacing_mm": list(grid.spacing_mm),
        "dtype": dtype,
        "order": VOXEL_ORDER,
        **extra,
    }
    atomic_write_bytes(payload_path, memoryview(payload))
    atomic_write_json(sidecar_path, sidecar)
    return sidecar_path


def load_volume(path: Path | str) -> Volume:
    """Load an intensity volume from its sidecar/payload pair, as a view of its mapped payload."""
    sidecar = read_sidecar(path, VOLUME_DTYPE)
    flat = _mapped_payload(sidecar, VOLUME_DTYPE)
    try:
        return Volume.from_flat(flat, sidecar.dims, sidecar.spacing_mm, sidecar.modality_tag)
    except NonFiniteDataError as exc:
        raise NonFiniteDataError(str(exc), path=sidecar.payload_path) from exc


def save_volume(volume: Volume, path: Path | str) -> Path:
    """Write sidecar and payload; both writes are atomic. Returns the sidecar path."""
    return _save_pair(path, volume, VOLUME_DTYPE, volume.data, modality_tag=volume.modality_tag)


def load_mask(path: Path | str) -> TissueMask:
    """Load a tissue mask like ``load_volume``, as a view of its mapped payload."""
    sidecar = read_sidecar(path, MASK_DTYPE)
    nx, ny, nz = sidecar.dims
    labels = _mapped_payload(sidecar, MASK_DTYPE).reshape(nz, ny, nx)
    try:
        return TissueMask(labels, sidecar.spacing_mm)
    except ValidationError as exc:
        raise ValidationError(str(exc), path=sidecar.payload_path) from exc


def check_same_grid(a, b, what: str, path: Path | str | None = None) -> None:
    """Raise a ValidationError unless ``a`` and ``b`` have the same dims and spacing.

    Either may be anything with ``dims`` and ``spacing_mm``: a loaded grid or a
    ``Sidecar``. ``what`` names the pair, as in ``"subject A000: mask and series"``.
    """
    if a.dims != b.dims or a.spacing_mm != b.spacing_mm:
        raise ValidationError(
            f"{what} are on different grids: dims {a.dims} and {b.dims}, spacing {a.spacing_mm} and {b.spacing_mm}",
            path=path,
        )


def save_mask(mask: TissueMask, path: Path | str) -> Path:
    """Write a mask's sidecar and payload like save_volume. Returns the sidecar path."""
    return _save_pair(path, mask, MASK_DTYPE, mask.labels)


def nearest_rank_index(n: int, q: float) -> int:
    """0-based index of the q-th percentile in an ascending sort of n values."""
    if not 0.0 <= q <= 100.0:
        raise ValidationError(f"percentile q must be in [0, 100], got {q}")
    if n < 1:
        raise ValidationError("percentile of an empty selection")
    return max(math.ceil(q * n / 100.0) - 1, 0)


def _kth_smallest(values: Callable[[slice], np.ndarray], n: int, count: int, k: int) -> float:
    """The ``k``-th smallest (0-based) of ``count`` values held at ``n`` grid positions, exactly, read by blocks.

    ``values(s)`` returns the values at the slice ``s`` of the positions,
    in position order, as a new array or a view; a position may hold no
    value, as a voxel outside a mask does. The passes read blocks of
    ``_SCAN_BLOCK`` positions. The values may hold infinities but no NaN.
    A zero may come back with the other sign than a sort would give it,
    which no comparison tells apart.

    The sample reads every position when ``count`` is at most ``_SAMPLE``,
    else a strided slice of about ``_SAMPLE`` positions. When its m values
    are all the ``count``, the answer is taken from them with no pass.
    Otherwise they set a bracket lo <= hi: their order statistics a few
    standard deviations either side of the rank the answer is expected to
    have among them, or an infinity where that runs off the sample's end
    (always, when m is 0). One pass counts the values at or below lo and
    those below hi, and keeps only those strictly between, so ties at
    either bound are counted, never kept. When rank k falls between the
    two counts, the answer is the kept value of its rank. When it falls
    among the ties at a bound, the answer is that bound; the count that
    shows this comes from a pass on which the bound was the other end of
    the bracket, or from the same pass when lo == hi. Otherwise the
    bracket missed: the next one reaches four times as far out on that
    side from the bound it crossed. So a second pass is made only on a
    miss or for a tie at a bound, and a bracket that reaches an infinity
    cannot miss on that side.

    Working memory is the sample and a partitioned copy, one block's
    values with three flags a value, and the values kept, twice over while
    they are joined. The bracket spans at most ``4 * sqrt(m) + 8`` of the
    sample's ranks, so where the sample represents the values that share
    of them is kept: 6.4% at m = 2**12, 3.2% at m = 2**14. A sample that
    misrepresents them can widen the bracket up to all the values.
    """
    sample = values(slice(0, n, 1 if count <= _SAMPLE else max(1, n // _SAMPLE)))
    m = sample.size
    if m == count:  # the sample holds every value
        return float(np.partition(sample, k)[k])
    at = (k + 0.5) * m / count
    width = 4.0 * math.sqrt(at * (m - at) / max(m, 1)) + 4.0

    def lower(width):  # (lo, values below lo): known for an infinite bound only
        rank = math.floor(at - width)
        return (np.partition(sample, rank)[rank], None) if rank >= 0 else (-math.inf, 0)

    def upper(width):  # (hi, values at or below hi): known for an infinite bound only
        rank = math.ceil(at + width)
        return (np.partition(sample, rank)[rank], None) if rank < m else (math.inf, count)

    (lo, below_lo), (hi, upto_hi) = lower(width), upper(width)
    while True:
        kept, upto_lo, below_hi = [], 0, 0
        for start in range(0, n, _SCAN_BLOCK):
            part = values(slice(start, start + _SCAN_BLOCK))
            low, high = part <= lo, part < hi
            upto_lo += int(np.count_nonzero(low))
            below_hi += int(np.count_nonzero(high))
            kept.append(part.compress(np.greater(high, low)))
        if lo == hi:
            below_lo, upto_hi = below_hi, upto_lo
        if upto_lo <= k < below_hi:
            kept = np.concatenate(kept)
            kept.partition(k - upto_lo)
            return float(kept[k - upto_lo])
        width *= 4.0
        if k < upto_lo:
            if below_lo is not None and below_lo <= k:
                return float(lo)
            (hi, upto_hi), (lo, below_lo) = (lo, upto_lo), lower(width)
        else:
            if upto_hi is not None and k < upto_hi:
                return float(hi)
            (lo, below_lo), (hi, upto_hi) = (hi, below_hi), upper(width)


def percentile(data: np.ndarray, q: float) -> float:
    """Nearest-rank percentile of an array: the value at 0-based index ceil(q/100 * n) - 1 of its ascending sort.

    q = 0 gives the minimum, and a zero may come back with either sign.
    ``_kth_smallest`` reads the array a block at a time, so no copy of it
    is formed.
    """
    flat = data.reshape(-1)
    return _kth_smallest(flat.__getitem__, flat.size, flat.size, nearest_rank_index(flat.size, q))


def bounding_box(mask: np.ndarray) -> tuple[slice, slice, slice] | None:
    """Slices of the smallest box holding every voxel of a 3D mask; None for an empty mask.

    y and x are scanned over the z-slab only. ``widen`` grows the box.
    """
    zs = np.flatnonzero(mask.any(axis=(1, 2)))
    if zs.size == 0:
        return None
    slab = mask[zs[0] : zs[-1] + 1]
    ys = np.flatnonzero(slab.any(axis=(0, 2)))
    xs = np.flatnonzero(slab.any(axis=(0, 1)))
    return tuple(slice(int(a[0]), int(a[-1]) + 1) for a in (zs, ys, xs))


def widen(box: tuple[slice, slice, slice], margins, shape) -> tuple[slice, slice, slice]:
    """``box`` widened by ``margins[i]`` voxels on both sides of axis i, and clipped to a grid of ``shape``."""
    return tuple(slice(max(b.start - m, 0), min(b.stop + m, n)) for b, m, n in zip(box, margins, shape))


def median_filter(volume: Volume, radius: int) -> Volume:
    """Median filter with a cubic window of side 2*radius + 1.

    Windows are clipped at the volume boundary rather than padded, and
    the median of a window of n values is the nearest-rank median (the
    value at index ceil(n/2) - 1 of the ascending sort), so the output
    is always drawn from values actually present in the window.

    The volume is padded with a margin of +inf. ``Volume`` rejects
    non-finite data, so the padding never ties with a voxel and orders
    after all of them: a window clipped to n voxels holds its n values
    first, and rank ceil(n/2) - 1 of the padded window is the clipped
    window's median.

    The kernel depends on the window size. At radius 1 the median is
    selected by a comparator network of ``np.minimum`` and
    ``np.maximum`` over shifted slices of the padded volume, run
    separably so that neighbouring windows share work: each run of 3
    voxels along z is sorted once, 3 neighbouring z-runs are merged
    along y into a sorted run of 9, and 3 of those are merged along x.
    The merges are Batcher's odd-even merges, pruned backwards to the
    ranks that the windows need: rank 13 inside the grid and the ranks
    of the clipped windows that a block holds, whose outputs are stored
    only at the face voxels. That is about 140 to 150 ufunc calls per
    block, instead of sorting 27 gathered values per voxel. At
    radius 2 and above the network grows faster than the sort and ran
    slower than it (about 35 against 29 ms at radius 2 on 24x64x64), so
    there each window is gathered and sorted. Either way every output
    is a value of its window at the nearest-rank position. Equal values
    are interchangeable, save that 0.0 and -0.0 compare equal: where a
    window's median is a zero, its sign may differ between the kernels.

    Working memory, besides the float32 output, is the padded copy,
    ``(nz + 2r) * (ny + 2r) * (nx + 2r)`` float32 values plus, at radius
    1, a tail of ``2 * (nx + 2) + 2``, and a work buffer reused for
    every block of about 2**14 voxels. At radius 1 that is 29 rows
    (19 for the x merge, which reuses the z sort's 4, and 10 for the y
    merge) of at most 2**14 voxels plus the tail: 1.5 MB on 64x64
    planes. At radius r >= 2 it is ``(2r + 1)**3`` values for each
    voxel of ``max(1, 2**14 // (ny * nx))`` planes: 8.2 MB at radius 2
    on 64x64 planes.
    """
    if radius < 1:
        raise ValidationError(f"filter radius must be >= 1, got {radius}")
    # Imported on first use: most processes never filter, and the kernels
    # would add to every process's start-up.
    from .median import median_of_windows

    return Volume(median_of_windows(volume.data, radius), volume.spacing_mm, volume.modality_tag)
