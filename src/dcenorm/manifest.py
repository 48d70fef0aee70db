"""Dataset manifests and per-subject series and mask loading.

A manifest is a JSON array of subject records. Each record names the
pre-contrast volume, an ordered list of post-contrast volumes, the
acquisition parameters used for grouping, and optionally a tissue mask
and a binary label. Paths are resolved relative to the manifest file's
directory, so a dataset directory can be moved as a unit. A loaded
manifest is its tuple of entries. A subject's entry is the only source
of its mask and of its acquisition parameters; ``dcenorm segment``
writes a manifest that gives a mask for every subject.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

from .errors import ManifestError, MaskError, MissingInputError, ValidationError
from .util import is_number, json_object, read_json
from .volume import (
    MASK_DTYPE, TissueMask, Volume, check_same_grid, load_external_mask, load_volume, read_sidecar, volume_files,
)

_REQUIRED_KEYS = {"subject_id", "pre", "posts", "te_ms", "tr_ms", "field_t"}
_OPTIONAL_KEYS = {"mask", "label"}
# Subject ids become file names and CSV cells: no path separator, CSV delimiter, quote or control character.
_UNSAFE_ID_CHARS = re.compile(r'[/\\,"\x00-\x1f\x7f-\x9f]')


@dataclass(frozen=True)
class SubjectEntry:
    subject_id: str
    pre: Path
    posts: tuple[Path, ...]
    te_ms: float
    tr_ms: float
    field_t: float
    mask: Path | None = None
    label: int | None = None


def _parse_entry(record: object, index: int, path: Path) -> SubjectEntry:
    """One manifest record as an entry; errors name the manifest ``path``."""
    keys = _REQUIRED_KEYS | _OPTIONAL_KEYS
    record = json_object(record, keys, f"entry {index}", ManifestError, path, required=_REQUIRED_KEYS)

    subject_id = record["subject_id"]
    if not isinstance(subject_id, str) or not subject_id:
        raise ManifestError(f"entry {index}: subject_id must be a non-empty string", path=path)
    if _UNSAFE_ID_CHARS.search(subject_id):
        raise ManifestError(
            f"entry {index}: subject_id {subject_id!r} may not contain '/', '\\', ',', '\"' or a control character",
            path=path,
        )

    posts = record["posts"]
    if not isinstance(posts, list) or len(posts) < 1:
        raise ManifestError(f"subject {subject_id}: posts must list at least one volume", path=path)

    for key in ("te_ms", "tr_ms", "field_t"):
        value = record[key]
        if not (is_number(value) and value > 0):
            raise ManifestError(f"subject {subject_id}: {key} must be a finite positive number", path=path)

    label = record.get("label")
    if label is not None and not (is_number(label, Integral) and label in (0, 1)):
        raise ManifestError(f"subject {subject_id}: label must be the integer 0 or 1, got {label!r}", path=path)

    mask = record.get("mask")
    if not all(isinstance(p, str) for p in (record["pre"], *posts, *([] if mask is None else [mask]))):
        raise ManifestError(f"subject {subject_id}: pre, posts and mask must be path strings", path=path)

    base_dir = path.parent
    pre = base_dir / record["pre"]
    post_paths = tuple(base_dir / p for p in posts)
    mask_path = base_dir / mask if mask is not None else None

    for volume in (pre, *post_paths) + ((mask_path,) if mask_path else ()):
        for file in volume_files(volume):
            if not file.exists():
                raise MissingInputError(f"subject {subject_id}: referenced file missing", path=file)

    return SubjectEntry(
        subject_id=subject_id,
        pre=pre,
        posts=post_paths,
        te_ms=float(record["te_ms"]),
        tr_ms=float(record["tr_ms"]),
        field_t=float(record["field_t"]),
        mask=mask_path,
        label=label,
    )


def load_manifest(path: Path | str) -> tuple[SubjectEntry, ...]:
    """Load and validate a manifest's entries, checking referenced files exist."""
    path = Path(path)
    data = read_json(path)
    if not isinstance(data, list):
        raise ManifestError("manifest must be a JSON array of subject records", path=path)
    entries = []
    seen: set[str] = set()
    for index, record in enumerate(data):
        entry = _parse_entry(record, index, path)
        if entry.subject_id in seen:
            raise ManifestError(f"duplicate subject_id {entry.subject_id!r}", path=path)
        seen.add(entry.subject_id)
        entries.append(entry)
    return tuple(entries)


@dataclass(frozen=True)
class StudySeries:
    """One subject's loaded volumes, all on one grid; its acquisition parameters stay on its entry.

    ``posts[0]`` is the first post-contrast volume; the heart anchor and
    all post-contrast intensity features are defined on it.
    """

    subject_id: str
    pre: Volume
    posts: tuple[Volume, ...]

    def __post_init__(self):
        if len(self.posts) < 1:
            raise ValidationError(f"subject {self.subject_id}: series needs at least one post volume")
        for i, post in enumerate(self.posts):
            check_same_grid(post, self.pre, f"subject {self.subject_id}: post{i + 1} and pre", ValidationError)

    @property
    def volumes(self) -> tuple[Volume, ...]:
        return (self.pre, *self.posts)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.pre.dims

    @property
    def spacing_mm(self) -> tuple[float, float, float]:
        return self.pre.spacing_mm


def check_subject_grids(entry: SubjectEntry) -> None:
    """Check from the sidecars that the entry's volumes, and the mask it gives, share one grid.

    Reads no payload: each payload's size is checked, but the checks on
    voxel values (finite intensities, known mask labels) are left to the
    stages that load the volumes.
    """
    sid = entry.subject_id
    pre = read_sidecar(entry.pre)
    posts = [read_sidecar(post) for post in entry.posts]
    for i, (post, path) in enumerate(zip(posts, entry.posts)):
        check_same_grid(post, pre, f"subject {sid}: post{i + 1} and pre", ValidationError, path)
    if entry.mask is not None:
        mask = read_sidecar(entry.mask, MASK_DTYPE)
        check_same_grid(mask, pre, f"subject {sid}: mask and series", MaskError, entry.mask)


def load_series(entry: SubjectEntry) -> StudySeries:
    return StudySeries(
        subject_id=entry.subject_id,
        pre=load_volume(entry.pre),
        posts=tuple(load_volume(p) for p in entry.posts),
    )


def load_subject(entry: SubjectEntry) -> tuple[StudySeries, TissueMask]:
    """Load a subject's series and the mask its entry names, checked against the series geometry."""
    if entry.mask is None:
        raise ValidationError(
            f"subject {entry.subject_id}: the manifest gives no mask; run `dcenorm segment` on it first"
        )
    series = load_series(entry)
    return series, load_external_mask(entry.mask, series)
