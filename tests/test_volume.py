import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
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
from dcenorm.volume import MASK_DTYPE, base_path, bounding_box, nearest_rank_index, read_sidecar, widen

from helpers import flat_vol, mask_of, vol


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

        def no_read(self):
            raise AssertionError(f"read {self}")

        monkeypatch.setattr(Path, "read_bytes", no_read)
        sidecar = read_sidecar(path)
        assert (sidecar.dims, sidecar.spacing_mm, sidecar.modality_tag) == ((2, 2, 1), (1.0, 2.0, 3.0), "pre")
        assert sidecar.payload_path == tmp_path / "v.raw"
        (tmp_path / "v.raw").write_bytes(f32_bytes([1, 2, 3]))
        with pytest.raises(ValidationError, match="12 bytes"):
            read_sidecar(path)
        with pytest.raises(ValidationError, match="u8"):
            read_sidecar(path, MASK_DTYPE)

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


def percentile_oracle(values, q):
    ordered = sorted(values)
    k = max(math.ceil(q * len(ordered) / 100.0) - 1, 0)
    return ordered[k]


class TestPercentile:
    def test_ten_values_median_and_max(self):
        v = flat_vol(range(1, 11))
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
            got = percentile(flat_vol(values), q)
            assert got == percentile_oracle(values, q)

    def test_result_is_an_element(self, rng):
        values = rng.normal(size=37).astype(np.float32)
        for q in (0, 12.5, 50, 90, 100):
            assert percentile(flat_vol(values), q) in values

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
        st.floats(0, 100),
        st.floats(0, 100),
    )
    def test_monotone_in_q(self, values, q1, q2):
        lo, hi = sorted((q1, q2))
        v = flat_vol(values)
        assert percentile(v, lo) <= percentile(v, hi)

    def test_masked_selection(self):
        data = np.array([[[10, 20, 30, 40]]], dtype=np.float32)
        mask = np.array([[[False, True, True, False]]])
        assert percentile(vol(data), 100, mask=mask) == 30.0
        assert percentile(vol(data), 0, mask=mask) == 20.0

    def test_empty_selection_rejected(self):
        data = np.zeros((1, 1, 3), dtype=np.float32)
        with pytest.raises(ValidationError, match="empty"):
            percentile(vol(data), 50, mask=np.zeros((1, 1, 3), dtype=bool))

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            percentile(vol(np.zeros((1, 1, 3))), 50, mask=np.zeros((1, 1, 4), dtype=bool))

    def test_q_out_of_range_rejected(self):
        v = flat_vol([1, 2, 3])
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
