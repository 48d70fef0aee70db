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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import MissingInputError, NonFiniteDataError, ValidationError
from .util import atomic_write_bytes, atomic_write_json, is_number

if TYPE_CHECKING:
    from .manifest import StudySeries

VOLUME_DTYPE = "f32le"
MASK_DTYPE = "u8"
VOXEL_ORDER = "x-fastest"
_ITEMSIZE = {VOLUME_DTYPE: 4, MASK_DTYPE: 1}

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
    must be finite.
    """

    data: np.ndarray
    spacing_mm: tuple[float, float, float]
    modality_tag: str = ""

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValidationError(f"volume data must be 3D and non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteDataError("volume contains NaN or infinite values")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
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
        bad = arr > MAX_LABEL
        if bad.any():
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

    Checks the dims, the spacing, the dtype (which must be ``expected_dtype``)
    and the voxel order, and that the payload holds exactly the bytes the dims
    require. Only the checks on voxel values are left to the loaders.
    """
    sidecar_path, payload_path = volume_files(path)
    for p in (sidecar_path, payload_path):
        if not p.exists():
            raise MissingInputError("volume file not found", path=p)
    try:
        with open(sidecar_path, "r", encoding="utf-8") as handle:
            sidecar = json.load(handle)
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

    nx, ny, nz = dims
    expected_bytes = nx * ny * nz * _ITEMSIZE[dtype]
    size = payload_path.stat().st_size
    if size != expected_bytes:
        raise ValidationError(f"payload is {size} bytes, dims {dims} require {expected_bytes}", path=payload_path)
    return Sidecar(
        (nx, ny, nz), tuple(float(s) for s in spacing), str(sidecar.get("modality_tag", "")), payload_path
    )


def _save_pair(path: Path | str, grid: Volume | TissueMask, dtype: str, payload: bytes, **extra) -> Path:
    """Write payload, then sidecar, both atomically; return the sidecar path."""
    sidecar_path, payload_path = volume_files(path)
    sidecar = {
        "dims": list(grid.dims),
        "spacing_mm": list(grid.spacing_mm),
        "dtype": dtype,
        "order": VOXEL_ORDER,
        **extra,
    }
    atomic_write_bytes(payload_path, payload)
    atomic_write_json(sidecar_path, sidecar)
    return sidecar_path


def load_volume(path: Path | str) -> Volume:
    """Load an intensity volume from its sidecar/payload pair."""
    sidecar = read_sidecar(path, VOLUME_DTYPE)
    try:
        flat = np.frombuffer(sidecar.payload_path.read_bytes(), dtype="<f4")
        return Volume.from_flat(flat, sidecar.dims, sidecar.spacing_mm, sidecar.modality_tag)
    except NonFiniteDataError as exc:
        raise NonFiniteDataError(str(exc), path=sidecar.payload_path) from exc


def save_volume(volume: Volume, path: Path | str) -> Path:
    """Write sidecar and payload; both writes are atomic. Returns the sidecar path."""
    return _save_pair(path, volume, VOLUME_DTYPE, volume.data.tobytes(), modality_tag=volume.modality_tag)


def load_mask(path: Path | str) -> TissueMask:
    sidecar = read_sidecar(path, MASK_DTYPE)
    nx, ny, nz = sidecar.dims
    labels = np.frombuffer(sidecar.payload_path.read_bytes(), dtype=np.uint8).reshape(nz, ny, nx)
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


def load_external_mask(path: Path | str, series: StudySeries) -> TissueMask:
    """Load a mask file and check it matches the series geometry."""
    mask = load_mask(path)
    check_same_grid(mask, series, f"subject {series.subject_id}: mask and series", path)
    return mask


def save_mask(mask: TissueMask, path: Path | str) -> Path:
    """Write a mask's sidecar and payload like save_volume. Returns the sidecar path."""
    return _save_pair(path, mask, MASK_DTYPE, mask.labels.tobytes())


def nearest_rank_index(n: int, q: float) -> int:
    """0-based index of the q-th percentile in an ascending sort of n values."""
    if not 0.0 <= q <= 100.0:
        raise ValidationError(f"percentile q must be in [0, 100], got {q}")
    if n < 1:
        raise ValidationError("percentile of an empty selection")
    return max(math.ceil(q * n / 100.0) - 1, 0)


def percentile(volume: Volume | np.ndarray, q: float, mask: np.ndarray | None = None) -> float:
    """Nearest-rank percentile of a volume, optionally restricted to a mask.

    The result is always an element of the selected multiset: the value
    at 0-based index ceil(q/100 * n) - 1 of the ascending sort, with
    q = 0 mapping to the minimum.
    """
    data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
    if mask is not None:
        if mask.shape != data.shape:
            raise ValidationError(
                f"mask shape {mask.shape} does not match data shape {data.shape}"
            )
        values = data[mask]
    else:
        values = data.ravel()
    if values.size == 0:
        raise ValidationError("percentile of an empty selection")
    k = nearest_rank_index(values.size, q)
    return float(np.partition(values, k)[k])


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
    slower than it (about 70 against 60 ms at radius 2 on 64x64x24), so
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
