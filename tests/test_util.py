import os
import stat
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dcenorm import ValidationError
from dcenorm.util import atomic_write_bytes, binary_cell, read_csv_records, read_json, write_csv


def _written(directory, cells):
    """Write one row of ``cells`` under columns c0, c1, ... and read its record back."""
    path = directory / "cells.csv"
    columns = ["subject_id", *(f"c{i}" for i in range(len(cells)))]
    write_csv(path, columns, [["s0", *cells]])
    ((_, record),) = read_csv_records(path, columns, "cells CSV")
    return path, [record[c] for c in columns[1:]]


def _bits(value):
    return np.float64(value).view(np.uint64)


class TestWriteCsv:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(sys.float_info.min)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_float_cell_reads_back_with_the_same_bits(self, tmp_path_factory, value):
        _, cells = _written(tmp_path_factory.mktemp("csv"), [value, np.float64(value)])
        assert [_bits(float(cell)) for cell in cells] == [_bits(value)] * 2

    def test_none_is_an_empty_cell_and_bools_read_back_as_binary_cells(self, tmp_path):
        path, cells = _written(tmp_path, [None, True, False, 7])
        assert path.read_text() == "subject_id,c0,c1,c2,c3\ns0,,1,0,7\n"
        assert cells[0] == ""
        record = {"c1": cells[1], "c2": cells[2]}
        assert [binary_cell(record, c, "s0", path) for c in ("c1", "c2")] == [1, 0]


class TestTextInputs:
    def test_json_that_is_not_utf8_is_one_validation_error_naming_the_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(b"\xff[]")
        with pytest.raises(ValidationError) as info:
            read_json(path)
        assert str(info.value) == f"file is not UTF-8 text: byte 0xff cannot be decoded [{path}]"

    def test_csv_that_is_not_utf8_is_one_validation_error_naming_the_file(self, tmp_path):
        """The bad byte sits in a row, past the header: the reader decodes it while it yields records."""
        path = tmp_path / "labels.csv"
        path.write_bytes(b"subject_id,label\nA000,1\nA\xe901,0\n")
        with pytest.raises(ValidationError) as info:
            list(read_csv_records(path, ("subject_id", "label"), "labels CSV"))
        assert str(info.value) == f"file is not UTF-8 text: byte 0xe9 cannot be decoded [{path}]"


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_follows_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write_bytes(tmp_path / "out.bin", b"data")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_an_existing_fifo_is_refused_not_replaced(self, tmp_path):
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match="not a regular file"):
            atomic_write_bytes(fifo, b"data")
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
