import logging
import math

import numpy as np
import pytest
from scipy import ndimage

from dcenorm import (
    MaskError,
    SegmentationConfig,
    SegmentationError,
    ValidationError,
    classical_mask,
    load_external_mask,
    load_mask,
    load_series,
    save_mask,
)
from dcenorm.segmentation import (
    assemble_mask,
    body_mask,
    chest_wall_planes,
    otsu_upper_class,
    segment_air,
    segment_breast,
    segment_dense,
    segment_heart,
)
from dcenorm.volume import DENSE, FAT, HEART, TUMOR, TissueMask

from helpers import flat_vol, series_of, vol


def dice(a, b):
    inter = np.count_nonzero(a & b)
    total = np.count_nonzero(a) + np.count_nonzero(b)
    return 2.0 * inter / total if total else 1.0


@pytest.fixture(scope="module")
def phantom_subject(phantom_dataset):
    _, manifest = phantom_dataset
    entry = manifest.entries[0]
    series = load_series(entry)
    truth = load_mask(entry.mask)
    return series, truth


class TestSegmentAir:
    def test_darkest_fraction_of_distinct_values(self):
        values = np.arange(1, 101, dtype=np.float32)
        selected = segment_air(flat_vol(values), SegmentationConfig())
        assert np.count_nonzero(selected) == 5
        assert set(values[selected.ravel()]) == {1, 2, 3, 4, 5}

    def test_constant_volume_fully_selected(self):
        selected = segment_air(vol(np.full((2, 3, 4), 9.0)), SegmentationConfig())
        assert selected.all()

    @pytest.mark.parametrize("fraction", [0.05, 0.123, 0.5])
    def test_count_matches_fraction_for_distinct_values(self, rng, fraction):
        n = 200
        values = rng.permutation(n).astype(np.float32)
        cfg = SegmentationConfig(air_fraction=fraction)
        selected = segment_air(flat_vol(values), cfg)
        assert np.count_nonzero(selected) == math.ceil(fraction * n)

    def test_ties_at_threshold_included(self):
        values = np.array([0, 0, 0, 0, 1, 2, 3, 4, 5, 6], dtype=np.float32)
        selected = segment_air(flat_vol(values), SegmentationConfig(air_fraction=0.1))
        # threshold lands on 0; every tied voxel comes along
        assert np.count_nonzero(selected) == 4


class TestOtsu:
    def test_two_gaussians_split_cleanly(self, rng):
        dark = rng.normal(0.0, 5.0, size=500)
        bright = rng.normal(100.0, 5.0, size=500)
        values = np.concatenate([dark, bright]).astype(np.float32)
        upper = otsu_upper_class(values)
        truth = np.concatenate([np.zeros(500, bool), np.ones(500, bool)])
        agreement = np.mean(upper == truth)
        assert agreement >= 0.99

    def test_binary_values_split_exactly(self):
        values = np.array([0, 0, 1, 1, 0, 1], dtype=np.float32)
        assert np.array_equal(otsu_upper_class(values), values == 1)

    def test_constant_input_degenerate(self):
        assert otsu_upper_class(np.full(10, 3.0)) is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            otsu_upper_class(np.array([]))


class TestBodyAndChestWall:
    def test_body_mask_selects_bright_block(self):
        data = np.zeros((4, 8, 8), dtype=np.float32)
        data[:, 2:6, 2:6] = 100.0
        body = body_mask(vol(data))
        assert np.array_equal(body, data == 100.0)

    def test_body_mask_constant_volume_empty(self):
        assert not body_mask(vol(np.full((3, 3, 3), 5.0))).any()

    def test_plane_is_posterior_most_wide_row(self):
        body = np.zeros((3, 16, 24), dtype=bool)
        body[:, 2:7, :] = True        # wide slab, rows 2..6
        body[:, 10:13, 4:6] = True    # narrow posterior tail
        planes = chest_wall_planes(body)
        assert np.array_equal(planes, np.full(3, 6))

    def test_empty_slice_gets_sentinel(self):
        body = np.zeros((2, 4, 4), dtype=bool)
        body[0, 1, :] = True
        planes = chest_wall_planes(body)
        assert planes[0] == 1
        assert planes[1] == -1

    def test_rejects_non_3d(self):
        with pytest.raises(ValidationError):
            chest_wall_planes(np.zeros((4, 4), dtype=bool))


class TestSegmentBreast:
    def test_phantom_dice(self, phantom_subject):
        series, truth = phantom_subject
        breast = segment_breast(series.pre, body_mask(series.pre), SegmentationConfig())
        truth_breast = (
            truth.tissue(FAT) | truth.tissue(DENSE) | truth.tissue(TUMOR)
        )
        assert dice(breast, truth_breast) >= 0.9

    def test_constant_volume_rejected(self):
        with pytest.raises(SegmentationError, match="no body voxels"):
            pre = vol(np.zeros((4, 8, 8)))
            segment_breast(pre, body_mask(pre), SegmentationConfig())

    def test_breast_sits_anterior_of_heart(self, phantom_subject):
        series, _ = phantom_subject
        mask = classical_mask(series, SegmentationConfig())
        breast_y = np.nonzero(mask.tissue(FAT) | mask.tissue(DENSE))[1]
        heart_y = np.nonzero(mask.tissue(HEART))[1]
        assert breast_y.max() < heart_y.mean()


class TestSegmentDense:
    def _breast_scene(self, rng):
        data = np.zeros((4, 12, 16), dtype=np.float32) + 50.0
        breast = np.zeros(data.shape, dtype=bool)
        breast[:, 2:10, :] = True
        fat_half = breast.copy()
        fat_half[:, :, 8:] = False
        dense_half = breast & ~fat_half
        data[fat_half] = rng.normal(400.0, 10.0, size=fat_half.sum())
        data[dense_half] = rng.normal(200.0, 10.0, size=dense_half.sum())
        return vol(data), breast, dense_half

    def test_dark_polarity_finds_low_class(self, rng):
        pre, breast, truth = self._breast_scene(rng)
        dense = segment_dense(pre, breast, SegmentationConfig())
        assert np.mean(dense[breast] == truth[breast]) >= 0.99
        assert not dense[~breast].any()

    def test_bright_polarity_flips(self, rng):
        pre, breast, truth = self._breast_scene(rng)
        cfg = SegmentationConfig(dense_polarity="bright")
        dense = segment_dense(pre, breast, cfg)
        assert np.mean(dense[breast] == ~truth[breast]) >= 0.99

    def test_constant_breast_leaves_dense_empty(self, caplog):
        pre = vol(np.full((3, 4, 5), 80.0))
        breast = np.zeros((3, 4, 5), dtype=bool)
        breast[:, :2, :] = True
        with caplog.at_level(logging.WARNING):
            dense = segment_dense(pre, breast, SegmentationConfig())
        assert not dense.any()
        assert "degenerate" in caplog.text

    def test_empty_breast_rejected(self):
        pre = vol(np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError):
            segment_dense(pre, np.zeros((2, 2, 2), dtype=bool), SegmentationConfig())

    def test_phantom_fat_dense_partition_breast(self, phantom_subject):
        series, _ = phantom_subject
        breast = segment_breast(series.pre, body_mask(series.pre), SegmentationConfig())
        mask = classical_mask(series, SegmentationConfig())
        fat_or_dense = mask.tissue(FAT) | mask.tissue(DENSE)
        # heart has precedence but never overlaps the breast territory
        assert np.array_equal(fat_or_dense, breast)


class TestSegmentHeart:
    def _two_blob_scene(self):
        shape = (12, 32, 24)
        pre = np.zeros(shape, dtype=np.float32)
        pre[:, 2:7, :] = 100.0  # chest slab spanning all x
        big = np.zeros(shape, dtype=bool)
        big[3:8, 16:20, 4:8] = True      # 80 voxels
        small = np.zeros(shape, dtype=bool)
        small[4:6, 16:18, 16:18] = True  # 8 voxels
        pre[big | small] = 100.0
        post = pre.copy()
        post[big | small] += 200.0
        return vol(pre), vol(post), big, small

    def test_largest_enhancing_component_wins(self):
        pre, post, big, small = self._two_blob_scene()
        cfg = SegmentationConfig(min_component_voxels=10)
        heart = segment_heart(pre, post, body_mask(pre), cfg)
        assert np.array_equal(heart, big)
        assert not (heart & small).any()

    def test_result_is_single_connected_component(self):
        pre, post, _, _ = self._two_blob_scene()
        cfg = SegmentationConfig(min_component_voxels=10)
        heart = segment_heart(pre, post, body_mask(pre), cfg)
        _, n = ndimage.label(heart, structure=np.ones((3, 3, 3), bool))
        assert n == 1

    def test_zero_subtraction_rejected(self):
        pre, _, _, _ = self._two_blob_scene()
        with pytest.raises(SegmentationError, match="no enhancement"):
            segment_heart(pre, pre, body_mask(pre), SegmentationConfig())

    def test_component_below_size_floor_rejected(self):
        pre, post, _, _ = self._two_blob_scene()
        cfg = SegmentationConfig(min_component_voxels=1000)
        with pytest.raises(SegmentationError, match="below the floor"):
            segment_heart(pre, post, body_mask(pre), cfg)

    def test_dims_mismatch_rejected(self):
        pre, post, _, _ = self._two_blob_scene()
        other = vol(np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError):
            segment_heart(pre, other, body_mask(pre), SegmentationConfig())

    def test_phantom_dice(self, phantom_subject):
        series, truth = phantom_subject
        heart = segment_heart(
            series.pre, series.posts[0], body_mask(series.pre), SegmentationConfig()
        )
        assert dice(heart, truth.tissue(HEART)) >= 0.9


class TestAssembleMask:
    def test_precedence_order(self):
        shape = (1, 1, 5)
        on = np.ones(shape, dtype=bool)
        off = np.zeros(shape, dtype=bool)
        mask = assemble_mask(on, on, on, on, on, (1, 1, 1))
        assert (mask.labels == TUMOR).all()
        mask = assemble_mask(off, off, on, on, off, (1, 1, 1))
        assert (mask.labels == HEART).all()

    def test_unclaimed_voxels_stay_background(self):
        shape = (1, 2, 2)
        off = np.zeros(shape, dtype=bool)
        air = off.copy()
        air[0, 0, 0] = True
        mask = assemble_mask(air, off, off, off, off, (1, 1, 1))
        assert mask.counts()["background"] == 3

    def test_shape_mismatch_named(self):
        on = np.ones((1, 1, 2), dtype=bool)
        bad = np.ones((1, 1, 3), dtype=bool)
        with pytest.raises(ValidationError, match="dense"):
            assemble_mask(on, on, bad, on, on, (1, 1, 1))


class TestClassicalPipeline:
    def test_phantom_dice_all_tissues(self, phantom_subject):
        series, truth = phantom_subject
        mask = classical_mask(series, SegmentationConfig())
        truth_breast = truth.tissue(FAT) | truth.tissue(DENSE) | truth.tissue(TUMOR)
        got_breast = mask.tissue(FAT) | mask.tissue(DENSE)
        # the classical pipeline has no tumor stage, so the phantom's
        # tumor voxels land in the dense class it carves them from
        truth_dense = truth.tissue(DENSE) | truth.tissue(TUMOR)
        assert dice(got_breast, truth_breast) >= 0.9
        assert dice(mask.tissue(DENSE), truth_dense) >= 0.9
        assert dice(mask.tissue(HEART), truth.tissue(HEART)) >= 0.9
        assert mask.counts()["tumor"] == 0

    def test_air_count_matches_fraction(self, phantom_subject):
        series, _ = phantom_subject
        mask = classical_mask(series, SegmentationConfig())
        # phantom noise makes intensity ties vanishingly unlikely
        assert mask.counts()["air"] == math.ceil(0.05 * series.pre.n_voxels)

    def test_deterministic(self, phantom_subject):
        series, _ = phantom_subject
        a = classical_mask(series, SegmentationConfig())
        b = classical_mask(series, SegmentationConfig())
        assert np.array_equal(a.labels, b.labels)


class TestExternalMask:
    def _series(self):
        pre = np.zeros((2, 3, 4), dtype=np.float32)
        return series_of(pre, [pre + 1])

    def test_matching_mask_loads(self, tmp_path):
        series = self._series()
        labels = np.zeros((2, 3, 4), dtype=np.uint8)
        labels[0, 0, 0] = FAT
        save_mask(TissueMask(labels, (1, 1, 1)), tmp_path / "m")
        mask = load_external_mask(tmp_path / "m", series)
        assert np.array_equal(mask.labels, labels)

    def test_dims_mismatch_rejected(self, tmp_path):
        series = self._series()
        save_mask(TissueMask(np.zeros((2, 3, 5), np.uint8), (1, 1, 1)), tmp_path / "m")
        with pytest.raises(MaskError, match="dims"):
            load_external_mask(tmp_path / "m", series)

    def test_spacing_mismatch_rejected(self, tmp_path):
        series = self._series()
        save_mask(TissueMask(np.zeros((2, 3, 4), np.uint8), (2, 2, 2)), tmp_path / "m")
        with pytest.raises(MaskError, match="spacing"):
            load_external_mask(tmp_path / "m", series)

    def test_illegal_label_rejected(self, tmp_path):
        series = self._series()
        save_mask(TissueMask(np.zeros((2, 3, 4), np.uint8), (1, 1, 1)), tmp_path / "m")
        raw = bytearray((tmp_path / "m.raw").read_bytes())
        raw[0] = 7
        (tmp_path / "m.raw").write_bytes(bytes(raw))
        with pytest.raises(MaskError, match="7"):
            load_external_mask(tmp_path / "m", series)


class TestSegmentationConfig:
    def test_rejects_bad_air_fraction(self):
        with pytest.raises(ValidationError):
            SegmentationConfig(air_fraction=0.0)
        with pytest.raises(ValidationError):
            SegmentationConfig(air_fraction=1.0)

    def test_rejects_unknown_polarity(self):
        with pytest.raises(ValidationError):
            SegmentationConfig(dense_polarity="sideways")
