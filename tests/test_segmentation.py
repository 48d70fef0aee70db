import logging
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import ndimage

from dcenorm import (
    SegmentationConfig,
    SubjectError,
    ValidationError,
    classical_mask,
    load_external_mask,
    load_mask,
    load_series,
    save_mask,
)
from dcenorm.segmentation import (
    _closing,
    _drop_small_components,
    _label,
    assemble_mask,
    body_mask,
    chest_wall_planes,
    otsu_upper_class,
    segment_air,
    segment_breast,
    segment_dense,
    segment_heart,
)
from dcenorm.volume import DENSE, FAT, HEART, TUMOR, TissueMask, percentile

from helpers import flat_vol, series_of, vol


def dice(a, b):
    inter = np.count_nonzero(a & b)
    total = np.count_nonzero(a) + np.count_nonzero(b)
    return 2.0 * inter / total if total else 1.0


# Full-volume versions of the closing and the labelling that now run on
# the candidate's bounding box, kept as the reference the crops must match.

CONN26 = np.ones((3, 3, 3), dtype=bool)


def full_volume_drop_small_components(mask, min_voxels):
    labeled, n = ndimage.label(mask, structure=CONN26)
    if n == 0:
        return mask
    sizes = np.bincount(labeled.ravel())
    keep = sizes >= min_voxels
    keep[0] = False
    return keep[labeled]


def body_and_planes(pre):
    body = body_mask(pre)
    return body, chest_wall_planes(body)


def full_volume_segment_breast(pre, body, config):
    if body.shape != pre.data.shape:
        raise ValidationError("body mask shape does not match volume")
    if not body.any():
        raise SubjectError("no body voxels above the air threshold")
    planes = chest_wall_planes(body)
    yy = np.arange(body.shape[1])[None, :, None]
    anterior = yy <= planes[:, None, None]
    candidate = body & anterior
    if config.morphology_radius > 0:
        side = 2 * config.morphology_radius + 1
        structure = np.ones((side, side, side), dtype=bool)
        candidate = ndimage.binary_closing(candidate, structure=structure)
    candidate = full_volume_drop_small_components(candidate, config.min_component_voxels)
    if not candidate.any():
        raise SubjectError("breast segmentation produced an empty mask")
    return candidate


def full_volume_segment_heart(pre, post1, body, config):
    if post1.dims != pre.dims:
        raise ValidationError("pre and post volumes disagree on dims")
    if body.shape != pre.data.shape:
        raise ValidationError("body mask shape does not match volume")
    sub = post1.data.astype(np.float64) - pre.data.astype(np.float64)
    if not (sub > 0).any():
        raise SubjectError("subtraction image shows no enhancement")
    threshold = percentile(sub, config.heart_enhancement_percentile)
    planes = chest_wall_planes(body)
    yy = np.arange(body.shape[1])[None, :, None]
    posterior = yy > planes[:, None, None]
    candidate = body & posterior & (sub >= threshold)
    labeled, n = ndimage.label(candidate, structure=CONN26)
    if n == 0:
        raise SubjectError("no heart candidates behind the chest wall")
    sizes = np.bincount(labeled.ravel())
    sizes[0] = 0
    best = int(np.argmax(sizes))
    if sizes[best] < config.min_component_voxels:
        raise SubjectError(
            f"largest enhancing component has {int(sizes[best])} voxels, "
            f"below the floor of {config.min_component_voxels}"
        )
    return labeled == best


@st.composite
def masks(draw):
    """3-D masks of 1-12 voxels per axis: any pattern, one kept 1-3 voxels
    away from every face, one with a voxel on each of the six faces, a
    single voxel, or no voxel at all."""
    shape = draw(st.tuples(*[st.integers(1, 12)] * 3))
    kind = draw(st.sampled_from(["any", "inner", "faces", "single", "empty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) < draw(st.sampled_from([0.05, 0.2, 0.5, 0.8]))
    if kind == "inner":
        gap = draw(st.integers(1, 3))
        inner = np.zeros(shape, dtype=bool)
        inner[tuple(slice(gap, n - gap) for n in shape)] = True
        mask &= inner
    if kind == "faces":
        for axis, n in enumerate(shape):
            for end in (0, n - 1):
                index = [draw(st.integers(0, k - 1)) for k in shape]
                index[axis] = end
                mask[tuple(index)] = True
    if kind in ("single", "empty"):
        mask[:] = False
    if kind == "single":
        mask[tuple(draw(st.integers(0, k - 1)) for k in shape)] = True
    return mask


def outcome(fn, *args):
    """What ``fn`` returns, or the message of the SubjectError it raises."""
    try:
        return fn(*args)
    except SubjectError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.fixture(scope="module")
def phantom_subject(phantom_dataset):
    _, manifest = phantom_dataset
    entry = manifest[0]
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
        breast = segment_breast(series.pre, *body_and_planes(series.pre), SegmentationConfig())
        truth_breast = (
            truth.tissue(FAT) | truth.tissue(DENSE) | truth.tissue(TUMOR)
        )
        assert dice(breast, truth_breast) >= 0.9

    def test_constant_volume_rejected(self):
        with pytest.raises(SubjectError, match="no body voxels"):
            pre = vol(np.zeros((4, 8, 8)))
            segment_breast(pre, *body_and_planes(pre), SegmentationConfig())

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
        breast = segment_breast(series.pre, *body_and_planes(series.pre), SegmentationConfig())
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
        heart = segment_heart(pre, post, *body_and_planes(pre), cfg)
        assert np.array_equal(heart, big)
        assert not (heart & small).any()

    def test_result_is_single_connected_component(self):
        pre, post, _, _ = self._two_blob_scene()
        cfg = SegmentationConfig(min_component_voxels=10)
        heart = segment_heart(pre, post, *body_and_planes(pre), cfg)
        _, n = ndimage.label(heart, structure=np.ones((3, 3, 3), bool))
        assert n == 1

    def test_zero_subtraction_rejected(self):
        pre, _, _, _ = self._two_blob_scene()
        with pytest.raises(SubjectError, match="no enhancement"):
            segment_heart(pre, pre, *body_and_planes(pre), SegmentationConfig())

    def test_component_below_size_floor_rejected(self):
        pre, post, _, _ = self._two_blob_scene()
        cfg = SegmentationConfig(min_component_voxels=1000)
        with pytest.raises(SubjectError, match="below the floor"):
            segment_heart(pre, post, *body_and_planes(pre), cfg)

    def test_dims_mismatch_rejected(self):
        pre, post, _, _ = self._two_blob_scene()
        other = vol(np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError):
            segment_heart(pre, other, *body_and_planes(pre), SegmentationConfig())

    def test_phantom_dice(self, phantom_subject):
        series, truth = phantom_subject
        heart = segment_heart(
            series.pre, series.posts[0], *body_and_planes(series.pre), SegmentationConfig()
        )
        assert dice(heart, truth.tissue(HEART)) >= 0.9


def min_voxels(mask, fraction):
    """A size floor from 1 up to the mask's voxel count."""
    return max(1, round(fraction * int(mask.sum())))


class TestBoundingBoxCrops:
    @given(masks(), st.floats(0.0, 1.0))
    def test_drop_small_components_matches_full_volume(self, mask, fraction):
        floor = min_voxels(mask, fraction)
        assert_same_outcome(_drop_small_components(mask, floor), full_volume_drop_small_components(mask, floor))

    @given(masks(), st.booleans(), st.integers(0, 3), st.floats(0.0, 1.0))
    # one voxel exactly r from every face: the closing keeps it only when
    # the box is widened by the full radius
    @example(np.pad(np.ones((1, 1, 1), bool), 1), False, 1, 0.0)
    @example(np.pad(np.ones((1, 1, 1), bool), 3), False, 3, 0.0)
    def test_segment_breast_matches_full_volume(self, body, flat_back, radius, fraction):
        if flat_back:
            # a full back row in every slice puts the whole body anterior
            # of the chest wall, so the candidate is the body itself
            body[:, -1, :] = True
        cfg = SegmentationConfig(morphology_radius=radius, min_component_voxels=min_voxels(body, fraction))
        pre = vol(np.zeros(body.shape))
        got = outcome(segment_breast, pre, body, chest_wall_planes(body), cfg)
        assert_same_outcome(got, outcome(full_volume_segment_breast, pre, body, cfg))

    @given(masks(), st.booleans(), st.floats(1.0, 100.0), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_segment_heart_matches_full_volume(self, body, chest_wall, pct, seed, fraction):
        if chest_wall:
            # a full front row in every slice, and at most half of each row
            # behind it, put the chest wall at y = 0 and the rest behind it
            body[:, 0, :] = True
            body[:, 1:, body.shape[2] // 2:] = False
        sub = np.random.default_rng(seed).integers(0, 4, body.shape)
        cfg = SegmentationConfig(heart_enhancement_percentile=pct, min_component_voxels=min_voxels(body, fraction))
        pre, post = vol(np.zeros(body.shape)), vol(sub)
        got = outcome(segment_heart, pre, post, body, chest_wall_planes(body), cfg)
        assert_same_outcome(got, outcome(full_volume_segment_heart, pre, post, body, cfg))


@st.composite
def kernel_masks(draw):
    """``masks()``, or one of the patterns that stress the run-based
    labelling: all voxels on, a 3-D checkerboard (every component touches
    its neighbours only at edges and corners), or stripes along x."""
    kind = draw(st.sampled_from(["masks", "full", "checkerboard", "stripes"]))
    if kind == "masks":
        return draw(masks())
    shape = draw(st.tuples(*[st.integers(1, 12)] * 3))
    if kind == "full":
        return np.ones(shape, dtype=bool)
    z, y, x = np.indices(shape)
    phase = draw(st.integers(0, 1))
    if kind == "checkerboard":
        return (z + y + x) % 2 == phase
    return (x + phase) % draw(st.integers(2, 4)) == 0


class TestMorphologyKernels:
    """The numpy closing and labelling against scipy.ndimage, which the program does not import."""

    @given(kernel_masks(), st.integers(0, 2))
    @example(np.zeros((1, 1, 1), bool), 1)
    @example(np.ones((1, 5, 7), bool), 1)
    @example(np.ones((3, 1, 9), bool), 2)
    @example(np.ones((5, 5, 5), bool), 2)
    def test_closing_matches_ndimage(self, mask, radius):
        before = mask.copy()
        side = 2 * radius + 1
        want = ndimage.binary_closing(mask, structure=np.ones((side,) * 3, bool), border_value=0)
        assert np.array_equal(_closing(mask, radius), want)
        assert np.array_equal(mask, before)

    @given(kernel_masks())
    @example(np.zeros((1, 1, 1), bool))
    @example(np.ones((1, 1, 1), bool))
    @example(np.ones((1, 1, 9), bool))
    @example(np.eye(6, dtype=bool)[None])
    @example(np.eye(6, dtype=bool)[:, :, None])
    def test_label_matches_ndimage(self, mask):
        want, n = ndimage.label(mask, structure=CONN26)
        got, count = _label(mask)
        assert count == n
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(9, 40, 70), (30, 17, 3), (4, 3, 130)])
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.9])
    def test_label_matches_ndimage_on_larger_masks(self, shape, density):
        """Many runs per row and many rows, so run numbers and prefix counts cross row ends."""
        mask = np.random.default_rng(7).random(shape) < density
        want, n = ndimage.label(mask, structure=CONN26)
        got, count = _label(mask)
        assert count == n and np.array_equal(got, want)


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
        assert mask.counts()["air"] == math.ceil(0.05 * series.pre.data.size)

    def test_deterministic(self, phantom_subject):
        series, _ = phantom_subject
        a = classical_mask(series, SegmentationConfig())
        b = classical_mask(series, SegmentationConfig())
        assert np.array_equal(a.labels, b.labels)

    def test_chest_wall_planes_computed_once(self, phantom_subject, monkeypatch):
        import dcenorm.segmentation as segmentation

        calls = []

        def counted(body):
            calls.append(body)
            return chest_wall_planes(body)

        monkeypatch.setattr(segmentation, "chest_wall_planes", counted)
        classical_mask(phantom_subject[0], SegmentationConfig())
        assert len(calls) == 1


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
        with pytest.raises(ValidationError, match="dims"):
            load_external_mask(tmp_path / "m", series)

    def test_spacing_mismatch_rejected(self, tmp_path):
        series = self._series()
        save_mask(TissueMask(np.zeros((2, 3, 4), np.uint8), (2, 2, 2)), tmp_path / "m")
        with pytest.raises(ValidationError, match="spacing"):
            load_external_mask(tmp_path / "m", series)

    def test_illegal_label_rejected(self, tmp_path):
        series = self._series()
        save_mask(TissueMask(np.zeros((2, 3, 4), np.uint8), (1, 1, 1)), tmp_path / "m")
        raw = bytearray((tmp_path / "m.raw").read_bytes())
        raw[0] = 7
        (tmp_path / "m.raw").write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="7"):
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
