"""The dataset on disk: manifests, subject files and labels, read and written here.

A manifest is a JSON array of subject records. Each record names the
pre-contrast volume, an ordered list of post-contrast volumes, the
acquisition parameters used for grouping, and optionally a tissue mask
and a binary label. Paths are resolved relative to the manifest file's
directory, so a dataset directory can be moved as a unit. A loaded
manifest is its tuple of entries. A subject's entry is the only source
of its mask and of its acquisition parameters; ``dcenorm segment``
writes a manifest that gives a mask for every subject.

Datasets are written as they are read: ``save_subject`` names a
subject's files ``<id>_pre``, ``<id>_post<k>`` and ``<id>_mask``, and
``save_manifest`` writes paths relative to the manifest's directory.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from numbers import Integral
from pathlib import Path

from .errors import ManifestError, MaskError, MissingInputError, ValidationError
from .util import (
    atomic_write_json, atomic_write_text, binary_cell, is_number, json_object, read_csv_records, read_json,
)
from .volume import (
    MASK_DTYPE, TissueMask, Volume, check_same_grid, load_external_mask, load_volume, read_sidecar, save_mask,
    save_volume, volume_files,
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


def entry_files(entry: SubjectEntry) -> list[Path]:
    """The sidecar and payload of every volume ``entry`` names: pre, posts, then the mask if it gives one."""
    volumes = (entry.pre, *entry.posts) + ((entry.mask,) if entry.mask is not None else ())
    return [file for volume in volumes for file in volume_files(volume)]


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
    entry = SubjectEntry(
        subject_id=subject_id,
        pre=base_dir / record["pre"],
        posts=tuple(base_dir / p for p in posts),
        te_ms=float(record["te_ms"]),
        tr_ms=float(record["tr_ms"]),
        field_t=float(record["field_t"]),
        mask=base_dir / mask if mask is not None else None,
        label=label,
    )
    for file in entry_files(entry):
        if not file.exists():
            raise MissingInputError(f"subject {subject_id}: referenced file missing", path=file)
    return entry


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


def _record(entry: SubjectEntry, base_dir: Path) -> dict:
    """``entry`` as a manifest record, paths relative to ``base_dir``; values are written as the entry holds them."""
    posts = [os.path.relpath(p, base_dir) for p in entry.posts]
    record = {"subject_id": entry.subject_id, "pre": os.path.relpath(entry.pre, base_dir), "posts": posts}
    if entry.mask is not None:
        record["mask"] = os.path.relpath(entry.mask, base_dir)
    record.update(te_ms=entry.te_ms, tr_ms=entry.tr_ms, field_t=entry.field_t)
    if entry.label is not None:
        record["label"] = entry.label
    return record


def save_manifest(out_dir: Path | str, entries) -> Path:
    """Write ``entries`` as ``out_dir``'s manifest.json, which ``load_manifest`` reads back; returns its path."""
    path = Path(out_dir) / "manifest.json"
    atomic_write_json(path, [_record(entry, path.parent) for entry in entries])
    return path


def subject_file(subject_id: str, out_dir: Path | str, index: int | None) -> Path:
    """The sidecar ``save_subject`` writes in ``out_dir``: pre at index 0, post ``k`` at ``k``, the mask at None."""
    name = "mask" if index is None else f"post{index}" if index else "pre"
    return Path(out_dir) / f"{subject_id}_{name}.json"


def save_subject(entry: SubjectEntry, out_dir: Path | str, volumes=(), mask: TissueMask | None = None) -> SubjectEntry:
    """Write ``volumes`` (pre, then each post) and ``mask``, those given, in ``out_dir``; return ``entry`` naming them.

    ``volumes`` may be a generator: each volume is written before the next is drawn.
    """
    files = [save_volume(volume, subject_file(entry.subject_id, out_dir, k)) for k, volume in enumerate(volumes)]
    if files:
        entry = replace(entry, pre=files[0], posts=tuple(files[1:]))
    if mask is not None:
        entry = replace(entry, mask=save_mask(mask, subject_file(entry.subject_id, out_dir, None)))
    return entry


def save_labels(out_dir: Path | str, entries) -> None:
    """Write ``out_dir``'s labels.csv, which ``read_labels_csv`` reads: each entry's subject id and label."""
    text = "subject_id,label\n" + "".join(f"{e.subject_id},{e.label}\n" for e in entries)
    atomic_write_text(Path(out_dir) / "labels.csv", text)


def read_labels_csv(path: Path | str) -> dict[str, int]:
    labels: dict[str, int] = {}
    for sid, record in read_csv_records(path, ("subject_id", "label"), "labels CSV"):
        if sid in labels:
            raise ValidationError(f"duplicate subject {sid} in labels", path=path)
        labels[sid] = binary_cell(record, "label", sid, path)
    return labels


def manifest_files(manifest: Path | str, entries):
    """The ``manifest`` file, then every file one of its ``entries`` names: what a run on it reads."""
    yield Path(manifest)
    for entry in entries:
        yield from entry_files(entry)


def check_out_dir_holds_no_input(out_dir: Path | str, inputs) -> None:
    """Reject an ``out_dir`` that holds one of ``inputs``: a run may replace there only files it wrote.

    An input is found there by its directory and, if it is a link, by its target's directory, both
    resolved, so neither another spelling of ``out_dir`` nor a link into it hides the input. Each
    directory is resolved once. The error names the input.
    """
    target = Path(out_dir).resolve()
    if not target.is_dir():  # a directory not made yet holds no file
        return
    directories = {}
    for file in map(Path, inputs):
        if file.parent not in directories:
            directories[file.parent] = file.parent.resolve()
        if target == directories[file.parent] or (file.is_symlink() and file.resolve().parent == target):
            raise ValidationError("--out-dir holds a file the run reads", path=file)


def check_outputs_spare_inputs(inputs, outputs: dict) -> None:
    """Reject a run that would write two of its ``outputs`` to one file, or one over a file among its ``inputs``.

    ``outputs`` maps each flag to the files written under it. Paths are
    compared resolved, so relative paths and links cannot hide a clash.
    A write replaces the directory entry, so two outputs are compared by
    their resolved directory and their name, and each directory is
    resolved once. The error names the flags of the first two outputs
    that share a file, else the flag and the first output that is an
    input.
    """
    directories, written = {}, {}
    for flag, files in outputs.items():
        for file in map(Path, files):
            if file.parent not in directories:
                directories[file.parent] = file.parent.resolve()
            where = (directories[file.parent], file.name)
            if where in written:
                first = written[where]
                both = f"{first} and {flag} would write" if first != flag else f"{flag} would write two outputs to"
                raise ValidationError(f"{both} the same file", path=file)
            written[where] = flag
    # An output that does not exist yet is no file the run reads, so ``inputs``,
    # which may be a generator, is drawn only when some output exists.
    existing = [(flag, Path(file)) for flag, files in outputs.items() for file in files if Path(file).exists()]
    if not existing:
        return
    resolved = {Path(file).resolve() for file in inputs}
    for flag, file in existing:
        if file.resolve() in resolved:
            raise ValidationError(f"{flag} would overwrite an input file", path=file)
