"""Dataset manifests and per-subject series and mask loading.

A manifest is a JSON array of subject records. Each record names the
pre-contrast volume, an ordered list of post-contrast volumes, the
acquisition parameters used for grouping, and optionally a tissue mask
and a binary label. Paths are resolved relative to the manifest file's
directory, so a dataset directory can be moved as a unit. A subject's
entry is the only source of its mask; ``dcenorm segment`` writes a
manifest that gives one for every subject.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Iterator

from .errors import ManifestError, MissingInputError, ValidationError
from .util import is_number, json_object, read_json
from .volume import TissueMask, Volume, load_external_mask, load_volume, volume_files

_REQUIRED_KEYS = {"subject_id", "pre", "posts", "te_ms", "tr_ms", "field_t"}
_OPTIONAL_KEYS = {"mask", "label"}


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


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[SubjectEntry, ...]
    path: Path

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[SubjectEntry]:
        return iter(self.entries)

    def subject_ids(self) -> list[str]:
        return [e.subject_id for e in self.entries]

    def get(self, subject_id: str) -> SubjectEntry:
        for entry in self.entries:
            if entry.subject_id == subject_id:
                return entry
        raise ManifestError(f"unknown subject_id {subject_id!r}")


def _parse_entry(record: object, index: int, base_dir: Path) -> SubjectEntry:
    keys = _REQUIRED_KEYS | _OPTIONAL_KEYS
    record = json_object(record, keys, f"entry {index}", ManifestError, None, required=_REQUIRED_KEYS)

    subject_id = record["subject_id"]
    if not isinstance(subject_id, str) or not subject_id:
        raise ManifestError(f"entry {index}: subject_id must be a non-empty string")

    posts = record["posts"]
    if not isinstance(posts, list) or len(posts) < 1:
        raise ManifestError(f"subject {subject_id}: posts must list at least one volume")

    for key in ("te_ms", "tr_ms", "field_t"):
        value = record[key]
        if not (is_number(value) and value > 0):
            raise ManifestError(f"subject {subject_id}: {key} must be a finite positive number")

    label = record.get("label")
    if label is not None and not (is_number(label, Integral) and label in (0, 1)):
        raise ManifestError(f"subject {subject_id}: label must be the integer 0 or 1, got {label!r}")

    mask = record.get("mask")
    if not all(isinstance(p, str) for p in (record["pre"], *posts, *([] if mask is None else [mask]))):
        raise ManifestError(f"subject {subject_id}: pre, posts and mask must be path strings")

    pre = base_dir / record["pre"]
    post_paths = tuple(base_dir / p for p in posts)
    mask_path = base_dir / mask if mask is not None else None

    for path in (pre, *post_paths) + ((mask_path,) if mask_path else ()):
        for file in volume_files(path):
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


def load_manifest(path: Path | str) -> DatasetManifest:
    """Load and validate a manifest, checking referenced files exist."""
    path = Path(path)
    data = read_json(path)
    if not isinstance(data, list):
        raise ManifestError("manifest must be a JSON array of subject records", path=path)
    base_dir = path.parent
    entries = []
    seen: set[str] = set()
    for index, record in enumerate(data):
        entry = _parse_entry(record, index, base_dir)
        if entry.subject_id in seen:
            raise ManifestError(f"duplicate subject_id {entry.subject_id!r}", path=path)
        seen.add(entry.subject_id)
        entries.append(entry)
    return DatasetManifest(entries=tuple(entries), path=path)


@dataclass(frozen=True)
class StudySeries:
    """One subject's loaded volumes plus acquisition metadata.

    ``posts[0]`` is the first post-contrast volume; the heart anchor and
    all post-contrast intensity features are defined on it.
    """

    subject_id: str
    pre: Volume
    posts: tuple[Volume, ...]
    te_ms: float
    tr_ms: float
    field_t: float

    def __post_init__(self):
        if len(self.posts) < 1:
            raise ValidationError(f"subject {self.subject_id}: series needs at least one post volume")
        for vol in self.posts:
            if vol.dims != self.pre.dims or vol.spacing_mm != self.pre.spacing_mm:
                raise ValidationError(
                    f"subject {self.subject_id}: series volumes disagree on dims or spacing"
                )

    @property
    def volumes(self) -> tuple[Volume, ...]:
        return (self.pre, *self.posts)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.pre.dims

    @property
    def spacing_mm(self) -> tuple[float, float, float]:
        return self.pre.spacing_mm


def load_series(entry: SubjectEntry) -> StudySeries:
    return StudySeries(
        subject_id=entry.subject_id,
        pre=load_volume(entry.pre),
        posts=tuple(load_volume(p) for p in entry.posts),
        te_ms=entry.te_ms,
        tr_ms=entry.tr_ms,
        field_t=entry.field_t,
    )


def load_subject(entry: SubjectEntry) -> tuple[StudySeries, TissueMask]:
    """Load a subject's series and the mask its entry names, checked against the series geometry."""
    if entry.mask is None:
        raise ValidationError(
            f"subject {entry.subject_id}: the manifest gives no mask; run `dcenorm segment` on it first"
        )
    series = load_series(entry)
    return series, load_external_mask(entry.mask, series)
