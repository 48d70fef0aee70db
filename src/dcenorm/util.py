"""Small shared helpers: atomic writes, JSON I/O, parallel maps."""

from __future__ import annotations

import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Callable, Sequence

from .errors import ManifestError, MissingInputError, ValidationError


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path | str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Path | str, obj: Any) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def read_json(path: Path | str) -> Any:
    path = Path(path)
    if not path.exists():
        raise MissingInputError("file not found", path=path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            path=path,
        ) from exc


def check_csv_row(record: dict, subject: str, path: Path) -> None:
    """Reject a ``csv.DictReader`` record whose field count differs from the header's.

    The reader files extra fields under the key None and fills missing ones with None.
    """
    if None in record or None in record.values():
        raise ValidationError(f"subject {subject!r}: row and header differ in field count", path=path)


def is_number(value: Any, kind: type = Real) -> bool:
    """True for a ``kind`` number that is not a bool and, unless ``kind`` is integral, is finite."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    # NaN fails the bound, as do infinity and an int too large for a float, which float() cannot convert.
    return issubclass(kind, Integral) or abs(value) <= sys.float_info.max


def run_parallel(fn: Callable, items: Sequence, jobs: int) -> list:
    """Map ``fn`` over ``items`` with ``jobs`` worker processes.

    Order of results matches the order of ``items``. ``jobs <= 1`` runs
    inline, which keeps tracebacks readable and avoids process startup
    cost for small batches.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def default_jobs() -> int:
    return os.cpu_count() or 1
