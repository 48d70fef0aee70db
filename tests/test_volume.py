import json
import math
import mmap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import ndimage

from dcenorm import (
    MissingInputError,
    NonFiniteDataError,
    TissueMask,
    ValidationError,
    Volume,
    load_mask,
    load_volume,
    median_filter,
    percentile,
    save_mask,
    save_volume,
)
from dcenorm import volume as volume_module
from dcenorm.volume import MASK_DTYPE, base_path, bounding_box, nearest_rank_index, read_sidecar, widen

from helpers import mask_of, percentile_oracle, vol


def write_pair(directory, name, dims, payload_bytes, dtype="f32le", order="x-fastest",
               spacing=(1.0, 1.0, 1.0), tag=""):
    sidecar = {
        "dims": list(dims),
        "spacing_mm": list(spacing),
        "dtype": dtype,
        "order": order,
        "modality_tag": tag,
    }
    (directory / f"{name}.json").write_text(json.dumps(sidecar))
    (directory / f"{name}.raw").write_bytes(payload_bytes)
    return directory / f"{name}.json"


def f32_bytes(values):
    return np.asarray(values, dtype="<f4").tobytes()


class TestVolumeIO:
    def test_load_small_volume_x_fastest(self, tmp_path):
        path = write_pair(tmp_path, "v", [2, 2, 1], f32_bytes([1, 2, 3, 4]), tag="pre")
        v = load_volume(path)
        assert v.dims == (2, 2, 1)
        assert v.data.shape == (1, 2, 2)
        # flat index x + nx * (y + ny * z)
        assert v.data[0, 0, 0] == 1.0
        assert v.data[0, 0, 1] == 2.0
        assert v.data[0, 1, 0] == 3.0
        assert v.data[0, 1, 1] == 4.0
        assert v.modality_tag == "pre"

    def test_load_accepts_either_file_of_the_pair(self, tmp_path):
        write_pair(tmp_path, "v", [2, 1, 1], f32_bytes([5, 6]))
        a = load_volume(tmp_path / "v.json")
        b = load_volume(tmp_path / "v.raw")
        c = load_volume(tmp_path / "v")
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.data, c.data)

    def test_short_payload_rejected(self, tmp_path):
        path = write_pair(tmp_path, "v", [2, 2, 1], f32_bytes([1, 2, 3]))
        with pytest.raises(ValidationError, match="12 bytes"):
            load_volume(path)

    def test_missing_payload_file(self, tmp_path):
        path = write_pair(tmp_path, "v", [2, 2, 1], f32_bytes([1, 2, 3, 4]))
        (tmp_path / "v.raw").unlink()
        with pytest.raises(MissingInputError):
            load_volume(path)

    def test_unsupported_dtype(self, tmp_path):
        path = write_pair(tmp_path, "v", [1, 1, 1], b"\x00" * 8, dtype="f64le")
        with pytest.raises(ValidationError, match="f64le"):
            load_volume(path)

    def test_unsupported_voxel_order(self, tmp_path):
        path = write_pair(tmp_path, "v", [1, 1, 1], f32_bytes([0]), order="z-fastest")
        with pytest.raises(ValidationError, match="order"):
            load_volume(path)

    def test_non_finite_payload(self, tmp_path):
        path = write_pair(tmp_path, "v", [2, 1, 1], f32_bytes([1.0, np.nan]))
        with pytest.raises(NonFiniteDataError):
            load_volume(path)

    def test_non_finite_voxel_in_a_later_block_names_the_payload(self, tmp_path):
        values = np.ones(2 * volume_module._SCAN_BLOCK + 5, dtype=np.float32)
        values[-3] = np.inf
        path = write_pair(tmp_path, "v", [values.size, 1, 1], values.tobytes())
        with pytest.raises(NonFiniteDataError) as info:
            load_volume(path)
        assert str(info.value) == f"volume contains NaN or infinite values [{tmp_path / 'v.raw'}]"

    def test_bad_dims_in_sidecar(self, tmp_path):
        path = write_pair(tmp_path, "v", [2, 0, 1], b"", dtype="f32le")
        with pytest.raises(ValidationError, match="dims"):
            load_volume(path)

    @pytest.mark.parametrize("spacing", [["x", 1, 1], [True, 1, 1], [1, None, 1], [1, 1]])
    def test_bad_spacing_in_sidecar(self, tmp_path, spacing):
        path = write_pair(tmp_path, "v", [1, 1, 1], f32_bytes([0]), spacing=spacing)
        with pytest.raises(ValidationError, match="spacing_mm") as info:
            load_volume(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("spacing", [[10 ** 400, 1, 1], [1, math.inf, 1], [1, 1, math.nan]])
    def test_non_finite_spacing_in_sidecar(self, tmp_path, spacing):
        path = write_pair(tmp_path, "v", [1, 1, 1], f32_bytes([0]), spacing=spacing)
        with pytest.raises(ValidationError, match="spacing_mm") as info:
            load_volume(path)
        assert str(path) in str(info.value)

    def test_read_sidecar_checks_the_payload_size_without_reading_it(self, tmp_path, monkeypatch):
        path = write_pair(tmp_path, "v", [2, 2, 1], f32_bytes([1, 2, 3, np.nan]), spacing=(1, 2, 3), tag="pre")

        def no_read(*args, **kwargs):
            raise AssertionError(f"payload read: {args}")

        monkeypatch.setattr(Path, "read_bytes", no_read)
        monkeypatch.setattr(mmap, "mmap", no_read)
        sidecar = read_sidecar(path)
        assert (sidecar.dims, sidecar.spacing_mm, sidecar.modality_tag) == ((2, 2, 1), (1.0, 2.0, 3.0), "pre")
        assert sidecar.payload_path == tmp_path / "v.raw"
        (tmp_path / "v.raw").write_bytes(f32_bytes([1, 2, 3]))
        with pytest.raises(ValidationError, match="12 bytes"):
            read_sidecar(path)
        with pytest.raises(ValidationError, match="u8"):
            read_sidecar(path, MASK_DTYPE)

    @pytest.mark.parametrize("load, dtype, payload", [
        (load_volume, "f32le", f32_bytes([1, 2, 3, 4])), (load_mask, "u8", bytes([0, 1, 2, 3])),
    ], ids=["volume", "mask"])
    @pytest.mark.parametrize("change", [-1, 1], ids=["truncated", "extended"])
    def test_payload_resized_after_its_sidecar_was_read_is_the_size_error(self, tmp_path, monkeypatch, load, dtype,
                                                                          payload, change):
        """The loader checks the size of the file it maps, so a payload resized after ``read_sidecar`` checked it
        is the same ValidationError naming the payload, not a shape error."""
        path = write_pair(tmp_path, "v", [2, 2, 1], payload, dtype=dtype)
        raw = tmp_path / "v.raw"

        def then_resize(*args):
            sidecar = read_sidecar(*args)
            raw.write_bytes(payload[:change] if change < 0 else payload + payload[:change])
            return sidecar

        monkeypatch.setattr(volume_module, "read_sidecar", then_resize)
        with pytest.raises(ValidationError) as info:
            load(path)
        size = len(payload) + change
        assert str(info.value) == f"payload is {size} bytes, dims [2, 2, 1] require {len(payload)} [{raw}]"

    @pytest.mark.parametrize("spacing", [[0, 1, 1], [1, -2.5, 1]])
    def test_non_positive_spacing_in_sidecar(self, tmp_path, spacing):
        path = write_pair(tmp_path, "v", [1, 1, 1], f32_bytes([0]), spacing=spacing)
        with pytest.raises(ValidationError, match="spacing_mm") as info:
            read_sidecar(path)
        assert str(path) in str(info.value)

    def test_sidecar_not_json(self, tmp_path):
        (tmp_path / "v.json").write_text("{not json")
        (tmp_path / "v.raw").write_bytes(f32_bytes([0]))
        with pytest.raises(ValidationError, match="sidecar is not valid JSON"):
            load_volume(tmp_path / "v")

    def test_sidecar_not_utf8(self, tmp_path):
        (tmp_path / "v.json").write_bytes(b"\xff{}")
        (tmp_path / "v.raw").write_bytes(f32_bytes([0]))
        with pytest.raises(ValidationError) as info:
            load_volume(tmp_path / "v")
        assert str(info.value) == f"file is not UTF-8 text: byte 0xff cannot be decoded [{tmp_path / 'v.json'}]"

    def test_payload_that_is_a_directory_is_missing(self, tmp_path):
        """An I/O failure, not a size mismatch: the directory's own size is never read as the payload's."""
        path = write_pair(tmp_path, "v", [2, 2, 1], f32_bytes([1, 2, 3, 4]))
        (tmp_path / "v.raw").unlink()
        (tmp_path / "v.raw").mkdir()
        with pytest.raises(MissingInputError) as info:
            read_sidecar(path)
        assert str(info.value) == f"volume file is not a regular file [{tmp_path / 'v.raw'}]"

    def test_single_voxel_payload_is_four_bytes(self, tmp_path):
        save_volume(vol(np.zeros((1, 1, 1)) + 7.5), tmp_path / "one")
        assert (tmp_path / "one.raw").stat().st_size == 4
        sidecar = json.loads((tmp_path / "one.json").read_text())
        assert sidecar["dims"] == [1, 1, 1]
        assert sidecar["dtype"] == "f32le"
        assert sidecar["order"] == "x-fastest"

    def test_round_trip_random_volumes_bit_exact(self, tmp_path, rng):
        for i in range(20):
            dims = rng.integers(1, 9, size=3)
            data = rng.normal(size=(dims[2], dims[1], dims[0])).astype(np.float32)
            spacing = tuple(float(s) for s in rng.uniform(0.5, 4.0, size=3))
            v = Volume(data, spacing, modality_tag=f"t{i}")
            save_volume(v, tmp_path / f"r{i}")
            back = load_volume(tmp_path / f"r{i}")
            assert back.data.tobytes() == v.data.tobytes()
            assert back.dims == v.dims
            assert back.spacing_mm == v.spacing_mm
            assert back.modality_tag == v.modality_tag

    def test_dotted_names_keep_their_own_files(self, tmp_path):
        pre = vol(np.zeros((1, 1, 2)) + 1.0)
        post = vol(np.zeros((1, 1, 2)) + 2.0)
        assert save_volume(pre, tmp_path / "A.1_pre") == tmp_path / "A.1_pre.json"
        assert save_volume(post, tmp_path / "A.1_post1") == tmp_path / "A.1_post1.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "A.1_post1.json", "A.1_post1.raw", "A.1_pre.json", "A.1_pre.raw",
        ]
        for name, expected in (("A.1_pre", pre), ("A.1_post1", post)):
            for path in (f"{name}.json", f"{name}.raw", name):
                assert np.array_equal(load_volume(tmp_path / path).data, expected.data)

    def test_save_mask_returns_sidecar(self, tmp_path):
        assert save_mask(mask_of(np.ones((1, 1, 2))), tmp_path / "B.2_mask") == tmp_path / "B.2_mask.json"
        assert load_mask(tmp_path / "B.2_mask.json").dims == (2, 1, 1)

    def test_base_path_strips_known_suffixes(self):
        assert base_path("a/b.json").name == "b"
        assert base_path("a/b.raw").name == "b"
        assert base_path("a/b").name == "b"


class TestVolumeContainer:
    def test_dims_reverses_array_shape(self):
        v = vol(np.zeros((2, 3, 4)))
        assert v.data.shape == (2, 3, 4)
        assert v.dims == (4, 3, 2)
        assert v.data.size == 24

    def test_data_is_frozen(self):
        v = vol(np.zeros((1, 1, 2)))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_rejects_non_3d(self):
        with pytest.raises(ValidationError, match="must be 3D and non-empty"):
            Volume(np.zeros((2, 2), dtype=np.float32), (1, 1, 1))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteDataError):
            vol([[[np.nan]]])

    @given(st.integers(0, 3 * 200 * 300 - 1), st.sampled_from([math.nan, math.inf, -math.inf]))
    @example(volume_module._SCAN_BLOCK, math.nan)
    @example(3 * 200 * 300 - 1, math.nan)
    def test_rejects_a_non_finite_voxel_in_any_range_block(self, index, value):
        """Two full range blocks and a partial third, finite but for one voxel: whichever block holds it,
        the range scan refuses the volume."""
        data = np.arange(3 * 200 * 300, dtype=np.float32).reshape(3, 200, 300)
        data.reshape(-1)[index] = value
        with pytest.raises(NonFiniteDataError):
            vol(data)

    def test_value_range_is_the_min_and_max(self):
        data = np.arange(3 * 200 * 300, dtype=np.float32).reshape(3, 200, 300) - 7.0
        assert vol(data).value_range == (-7.0, float(data.size - 8))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValidationError):
            Volume(np.zeros((1, 1, 1), dtype=np.float32), (1.0, 0.0, 1.0))

    def test_from_flat_matches_storage_order(self):
        v = Volume.from_flat(np.arange(6), (3, 2, 1), (1, 1, 1))
        assert v.data.shape == (1, 2, 3)
        assert list(v.data[0, 0]) == [0, 1, 2]
        assert list(v.data[0, 1]) == [3, 4, 5]


class TestTissueMask:
    def test_counts_all_labels(self):
        m = mask_of(np.array([[[0, 1, 2, 3, 4, 5, 5]]]))
        c = m.counts()
        assert c == {"background": 1, "air": 1, "fat": 1, "dense": 1, "heart": 1, "tumor": 2}

    def test_tissue_lookup(self):
        m = mask_of(np.array([[[0, 2, 2, 3]]]))
        assert m.tissue(2).sum() == 2
        assert m.tissue(5).sum() == 0

    def test_rejects_illegal_label(self):
        with pytest.raises(ValidationError, match="7"):
            mask_of(np.array([[[0, 7]]]))

    def test_round_trip(self, tmp_path, rng):
        labels = rng.integers(0, 6, size=(3, 4, 5)).astype(np.uint8)
        m = TissueMask(labels, (2.0, 2.0, 4.0))
        save_mask(m, tmp_path / "m")
        back = load_mask(tmp_path / "m")
        assert np.array_equal(back.labels, labels)
        assert back.spacing_mm == (2.0, 2.0, 4.0)

    def test_load_rejects_illegal_label_in_file(self, tmp_path):
        save_mask(mask_of(np.zeros((1, 1, 4))), tmp_path / "m")
        raw = bytearray((tmp_path / "m.raw").read_bytes())
        raw[2] = 7
        (tmp_path / "m.raw").write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="7"):
            load_mask(tmp_path / "m")


SPECIAL_VALUES = [-math.inf, -1e30, -2.5, -0.0, 0.0, 1.0, 3.0, 1e30, math.inf]


@st.composite
def selections(draw):
    """Values for ``_kth_smallest``: a pool with infinities, signed zeros and ties, random floats, or one
    repeated value, in either dtype; no mask, or one selecting about half of them, a few or just one; a
    rank of the selected values, often the first or the last; and the scan block."""
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["pool", "random", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "pool":
        pool = draw(st.lists(st.sampled_from(SPECIAL_VALUES), min_size=1, max_size=5))
        values = rng.choice(pool, n)
    elif kind == "random":
        values = rng.normal(0.0, 100.0, n)
    else:
        values = np.full(n, draw(st.sampled_from(SPECIAL_VALUES)))
    values = values.astype(draw(st.sampled_from([np.float32, np.float64])))
    share = draw(st.sampled_from([None, 0.5, 0.02, 0.0]))
    mask = None
    if share is not None:
        mask = rng.random(n) < share
        mask[rng.integers(n)] = True
    count = n if mask is None else int(np.count_nonzero(mask))
    k = draw(st.one_of(st.just(0), st.just(count - 1), st.integers(0, count - 1)))
    return values, mask, k, draw(st.sampled_from([1, 7, 2**16]))


def selected(values, mask, k):
    """``_kth_smallest``'s value of rank k of ``values`` at ``mask``, read through slices, and the passes it made."""
    starts = []

    def read(s):
        if s.step is None:
            starts.append(s.start)
        return values[s] if mask is None else values[s][mask[s]]

    count = values.size if mask is None else int(np.count_nonzero(mask))
    return volume_module._kth_smallest(read, values.size, count, k), starts.count(0)


class TestSelect:
    """The blocked selection behind every percentile, against the sort's nearest rank."""

    @given(selections(), st.sampled_from([2**14, 200, 3]))
    def test_equals_the_sorted_value_of_rank_k(self, selection, sample):
        values, mask, k, block = selection
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(volume_module, "_SAMPLE", sample)
            patch.setattr(volume_module, "_SCAN_BLOCK", block)
            got, _ = selected(values, mask, k)
        assert got == np.sort(values if mask is None else values[mask])[k]  # 0.0 == -0.0: a zero's sign is not asserted

    @pytest.mark.parametrize("q", [0.0, 50.0, 100.0])
    def test_exact_where_the_sample_holds_no_selected_value(self, monkeypatch, q):
        """A mask off every sampled position leaves the sample empty; the bracket is then unbounded, and one
        pass keeps every selected value."""
        monkeypatch.setattr(volume_module, "_SAMPLE", 16)
        n = 16 * 40
        values = np.random.default_rng(4).normal(0.0, 1.0, n)
        mask = np.zeros(n, dtype=bool)
        mask[5::20] = True
        assert mask.sum() > 16 and not mask[:: n // 16].any()
        k = nearest_rank_index(int(mask.sum()), q)
        got, passes = selected(values, mask, k)
        assert got == np.sort(values[mask])[k]
        assert passes == 1

    @pytest.mark.parametrize("masked", [False, True])
    def test_a_selection_no_larger_than_the_sample_is_read_once(self, monkeypatch, masked):
        """Up to ``_SAMPLE`` values, the sample reads every position, so it holds them all: no pass is made."""
        monkeypatch.setattr(volume_module, "_SAMPLE", 64)
        values = np.random.default_rng(5).normal(0.0, 1.0, 64 if not masked else 640)
        mask = None if not masked else np.arange(values.size) % 10 == 3
        for k in (0, 31, 63):
            got, passes = selected(values, mask, k)
            assert got == np.sort(values if mask is None else values[mask])[k]
            assert passes == 0

    @pytest.mark.parametrize("side, q", [("above", 50.0), ("below", 50.0), ("above", 99.0), ("below", 1.0)])
    def test_exact_where_the_sample_misleads(self, monkeypatch, side, q):
        """Every sampled value lies beyond all the others, on the side that puts the first bracket past the
        answer, so it misses; the later passes still find the exact value."""
        monkeypatch.setattr(volume_module, "_SAMPLE", 256)
        monkeypatch.setattr(volume_module, "_SCAN_BLOCK", 1000)
        n = 256 * 40
        values = np.random.default_rng(1).normal(0.0, 1.0, n)
        values[:: n // 256] += 1e6 if side == "above" else -1e6
        k = nearest_rank_index(n, q)
        got, passes = selected(values, None, k)
        assert got == np.sort(values)[k]
        assert passes >= 2

    @pytest.mark.parametrize("q", [5.0, 50.0, 99.0])
    def test_ties_resolve_at_a_bound_without_keeping_them(self, q):
        """Integer values with long runs of ties, as scanners write them: the answer is a bound of the
        bracket, and no pass keeps the ties it counts."""
        values = np.random.default_rng(2).integers(0, 5, 50_000).astype(np.float32)
        k = nearest_rank_index(values.size, q)
        got, passes = selected(values, None, k)
        assert got == np.sort(values)[k]
        assert passes <= 2


class TestPercentile:
    def test_ten_values_median_and_max(self):
        v = np.asarray(range(1, 11), dtype=np.float32)
        assert percentile(v, 50) == 5.0
        assert percentile(v, 100) == 10.0
        assert percentile(v, 0) == 1.0

    def test_nearest_rank_index_spot_values(self):
        assert nearest_rank_index(10, 50) == 4
        assert nearest_rank_index(10, 100) == 9
        assert nearest_rank_index(10, 0) == 0
        assert nearest_rank_index(10, 0.1) == 0
        assert nearest_rank_index(1, 37.5) == 0

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 60))
            # integer draws create plenty of ties
            values = rng.integers(-20, 20, size=n).astype(np.float32)
            q = float(rng.choice([0.0, 100.0, rng.uniform(0, 100)]))
            got = percentile(values, q)
            assert got == percentile_oracle(values, q)

    def test_result_is_an_element(self, rng):
        values = rng.normal(size=37).astype(np.float32)
        for q in (0, 12.5, 50, 90, 100):
            assert percentile(values, q) in values

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
        st.floats(0, 100),
        st.floats(0, 100),
    )
    def test_monotone_in_q(self, values, q1, q2):
        lo, hi = sorted((q1, q2))
        v = np.asarray(values, dtype=np.float32)
        assert percentile(v, lo) <= percentile(v, hi)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            percentile(np.zeros((1, 1, 0), dtype=np.float32), 50)

    def test_q_out_of_range_rejected(self):
        v = np.asarray([1, 2, 3], dtype=np.float32)
        with pytest.raises(ValidationError):
            percentile(v, -1)
        with pytest.raises(ValidationError):
            percentile(v, 100.5)

    def test_accepts_plain_arrays(self):
        assert percentile(np.array([3.0, 1.0, 2.0]), 50) == 2.0


def median_filter_oracle(data, radius):
    """Triple-loop clipped-window nearest-rank median."""
    nz, ny, nx = data.shape
    out = np.empty_like(data)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                window = data[
                    max(z - radius, 0) : z + radius + 1,
                    max(y - radius, 0) : y + radius + 1,
                    max(x - radius, 0) : x + radius + 1,
                ]
                ordered = np.sort(window.ravel())
                out[z, y, x] = ordered[(ordered.size + 1) // 2 - 1]
    return out


def extent(mask):
    hits = np.argwhere(mask)
    return tuple(slice(int(lo), int(hi) + 1) for lo, hi in zip(hits.min(0), hits.max(0)))


class TestBoxes:
    @given(st.integers(0, 2**32 - 1), st.tuples(*[st.integers(0, 3)] * 3))
    def test_widened_box_is_the_clipped_extent(self, seed, margins):
        rng = np.random.default_rng(seed)
        mask = rng.random((4, 5, 6)) < 0.05
        box = bounding_box(mask)
        if not mask.any():
            assert box is None
            return
        assert box == extent(mask)
        # Widening is the extent of the mask dilated by a cuboid of half-sides ``margins``.
        dilated = ndimage.binary_dilation(mask, structure=np.ones([2 * m + 1 for m in margins], dtype=bool))
        assert widen(box, margins, mask.shape) == extent(dilated)


class TestMedianFilter:
    def test_constant_volume_unchanged(self):
        v = vol(np.full((4, 4, 4), 3.5))
        assert np.array_equal(median_filter(v, 1).data, v.data)

    def test_single_impulse_removed(self):
        data = np.zeros((5, 5, 5), dtype=np.float32)
        data[2, 2, 2] = 1.0
        out = median_filter(vol(data), 1)
        assert np.count_nonzero(out.data) == 0

    def test_matches_brute_force_oracle(self, rng):
        data = rng.integers(0, 6, size=(6, 5, 4)).astype(np.float32)
        out = median_filter(vol(data), 1)
        assert np.array_equal(out.data, median_filter_oracle(data, 1))

    def test_matches_oracle_radius_two(self, rng):
        data = rng.normal(size=(5, 4, 6)).astype(np.float32)
        out = median_filter(vol(data), 2)
        assert np.array_equal(out.data, median_filter_oracle(data, 2))

    def test_tiny_volume_boundary_windows(self, rng):
        # every window is clipped on some side here
        data = rng.normal(size=(2, 2, 2)).astype(np.float32)
        out = median_filter(vol(data), 1)
        assert np.array_equal(out.data, median_filter_oracle(data, 1))

    @given(
        shape=st.tuples(*[st.integers(1, 7)] * 3),
        radius=st.integers(1, 3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_oracle_on_tied_values(self, shape, radius, seed):
        # axes shorter than the window, and few distinct values, so ties abound
        data = np.random.default_rng(seed).integers(0, 4, size=shape).astype(np.float32)
        out = median_filter(vol(data), radius)
        assert np.array_equal(out.data, median_filter_oracle(data, radius))

    def test_matches_oracle_with_partial_last_slab(self, rng):
        # 64x64 planes are filtered four at a time, so nz = 7 ends on a slab of three
        data = rng.integers(0, 8, size=(7, 64, 64)).astype(np.float32)
        out = median_filter(vol(data), 1)
        assert np.array_equal(out.data, median_filter_oracle(data, 1))

    def test_output_within_input_range(self, rng):
        data = rng.normal(size=(7, 6, 5)).astype(np.float32)
        out = median_filter(vol(data), 1).data
        assert out.min() >= data.min()
        assert out.max() <= data.max()

    def test_rejects_radius_zero(self):
        with pytest.raises(ValidationError):
            median_filter(vol(np.zeros((3, 3, 3))), 0)

    def test_preserves_spacing_and_tag(self):
        v = Volume(np.zeros((3, 3, 3), dtype=np.float32), (1, 2, 3), "post1")
        out = median_filter(v, 1)
        assert out.spacing_mm == (1.0, 2.0, 3.0)
        assert out.modality_tag == "post1"

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("shape", [(5, 6, 7), (2, 3, 9), (4, 64, 64), (3, 70, 250)])
    def test_extreme_values_tied_at_faces_match_oracle(self, shape, radius):
        # Near +-float32 max a padding sentinel of finite value would tie
        # with voxels, and NaN would break the min/max network. The outer
        # shell holds mostly extremes, with ties throughout; (4, 64, 64)
        # runs blocks of whole planes, (3, 70, 250) blocks of rows.
        big = np.finfo(np.float32).max
        rng = np.random.default_rng(sum(shape) + radius)
        data = rng.choice(np.array([-big, -1.0, 0.0, 2.0, big], dtype=np.float32), size=shape)
        shell = np.ones(shape, dtype=bool)
        shell[tuple(slice(radius + 1, n - radius - 1) for n in shape)] = False
        data[shell] = rng.choice(np.array([-big, big, big, 2.0], dtype=np.float32), size=int(shell.sum()))
        out = median_filter(vol(data), radius).data
        assert out.tobytes() == median_filter_oracle(data, radius).tobytes()

    @pytest.mark.parametrize("radius", [1, 2])
    def test_peak_allocation_within_stated_working_memory(self, radius):
        # The output, the padded copy with its tail, and the work rows
        # (radius 1) or window buffer (radius 2) that the docstring states.
        nz, ny, nx = shape = (24, 64, 64)
        v = vol(np.random.default_rng(0).normal(size=shape))
        median_filter(v, radius)  # builds the cached networks outside the trace
        pad = 2 * radius
        padded = (nz + pad) * (ny + pad) * (nx + pad)
        if radius == 1:
            tail = pad * (nx + pad) + pad
            work = 29 * (2 ** 14 + tail)
        else:
            tail = 0
            work = max(1, 2 ** 14 // (ny * nx)) * ny * nx * (2 * radius + 1) ** 3
        bound = 4 * (nz * ny * nx + padded + tail + work)
        tracemalloc.start()
        try:
            median_filter(v, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
