"""Small shared helpers: atomic writes, JSON and CSV input checks, the CSV writer, parallel maps."""

from __future__ import annotations

import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .errors import MissingInputError, ValidationError


def atomic_write_bytes(path: Path | str, data: bytes | memoryview) -> None:
    """Write ``data``, any C-contiguous buffer, to ``path`` via a temp file and atomic rename.

    The temp file is a new name in ``path``'s directory, created with mode
    0o666 less the umask, as any new file is. An existing ``path`` that is
    not a regular file (a directory, a FIFO, a device) is refused with an
    OSError, not replaced.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        raise OSError(f"output exists and is not a regular file [{path}]")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):  # before Integral, which it is
        return "1" if value else "0"
    if isinstance(value, Integral):
        return str(int(value))
    return repr(float(value))  # the shortest decimal that reads back to the same float64


def write_csv(path: Path | str, header: Sequence[str], rows) -> None:
    """Write ``header``, then each row of cells, as comma-joined lines with no quoting.

    None is an empty cell, a str is written as it is, a bool is 1 or 0, any other integer
    its digits, and any other number ``repr(float(value))``. No cell may hold a comma or a
    quote: manifest loading rejects a subject id that does; other cells are names or numbers.
    """
    lines = [",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def not_utf8(exc: UnicodeDecodeError, path: Path | str) -> ValidationError:
    """The error for a text file ``path`` whose bytes ``exc`` found not to be UTF-8."""
    return ValidationError(f"file is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} cannot be decoded", path=path)


def read_json(path: Path | str) -> Any:
    path = Path(path)
    if not path.exists():
        raise MissingInputError("file not found", path=path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise not_utf8(exc, path) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            path=path,
        ) from exc


def json_object(value: Any, keys, what: str, path: Path | str | None, required=()) -> dict:
    """``value`` if it is a dict whose keys lie in ``keys`` and include ``required``.

    Otherwise raises a ValidationError naming the missing or unknown keys.
    """
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object", path=path)
    missing = set(required) - set(value)
    if missing:
        raise ValidationError(f"{what} is missing required keys: {sorted(missing)}", path=path)
    unknown = set(value) - set(keys)
    if unknown:
        raise ValidationError(f"{what} has unknown keys: {sorted(unknown)}", path=path)
    return value


def read_csv_records(path: Path | str, columns: Sequence[str], what: str) -> Iterator[tuple[str, dict]]:
    """Yield ``(subject, record)`` for each row of a CSV whose header names each of ``columns`` once.

    ``columns[0]`` holds the subject, and each subject has one row. A row whose
    field count differs from the header's is an error: ``csv.DictReader`` would
    file extra fields under the key None and fill missing ones with None.
    """
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"{what} not found", path=path)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(_utf8_lines(handle, path))
        # Sorted lists, not sets: the reader would keep only a repeated column's last values.
        header = reader.fieldnames or []
        if sorted(header) != sorted(columns):
            raise ValidationError(f"{what} header must name each of {','.join(columns)} once, got {header}", path=path)
        seen = set()
        for record in reader:
            subject = record[columns[0]]
            if None in record or None in record.values():
                raise ValidationError(f"subject {subject!r}: row and header differ in field count", path=path)
            if subject in seen:
                raise ValidationError(f"duplicate subject {subject} in {what}", path=path)
            seen.add(subject)
            yield subject, record


def _utf8_lines(handle, path: Path) -> Iterator[str]:
    """The lines of the text file ``handle``, opened as UTF-8; bytes that are not UTF-8 end in ``not_utf8``'s error."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        raise not_utf8(exc, path) from exc


def binary_cell(record: dict, column: str, subject: str, path: Path | str) -> int:
    """The CSV cell ``record[column]`` as 0 or 1; any other text is an error naming the subject and column."""
    cell = record[column]
    if cell not in ("0", "1"):
        raise ValidationError(f"subject {subject!r}: {column} must be 0 or 1, got {cell!r}", path=path)
    return int(cell)


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
