import sys

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from dcenorm.util import binary_cell, read_csv_records, write_csv


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
