import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import ndimage

from dcenorm import (
    GroupSpec,
    PhantomConfig,
    SegmentationConfig,
    SubjectError,
    ValidationError,
    classical_mask,
    generate_phantom,
    load_mask,
    load_series,
)
from dcenorm import segmentation
from dcenorm.cli import main
from dcenorm.manifest import load_manifest, save_manifest
from dcenorm.segmentation import (
    OTSU_BINS,
    _closing,
    _drop_small_components,
    _enhancement_threshold,
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
from dcenorm import volume as volume_module
from dcenorm.volume import DENSE, FAT, HEART, TUMOR, nearest_rank_index

from helpers import flat_vol, peak_rss_growth, percentile_oracle, segment_volumes, vol


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
    threshold = percentile_oracle(sub, config.heart_enhancement_percentile)
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


def whole_array_otsu_upper_class(values):
    """``otsu_upper_class``'s split as one whole-array pass: the result its blocked binning must equal."""
    values = np.asarray(values)
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return None
    idx = np.floor((values.astype(np.float64) - lo) * (OTSU_BINS / (hi - lo))).astype(np.int64)
    np.clip(idx, 0, OTSU_BINS - 1, out=idx)
    counts = np.bincount(idx.ravel(), minlength=OTSU_BINS).astype(np.float64)
    centers = np.arange(OTSU_BINS, dtype=np.float64)
    w0 = np.cumsum(counts)[:-1]
    w1 = counts.sum() - w0
    m0 = np.cumsum(counts * centers)[:-1]
    m1 = (counts * centers).sum() - m0
    valid = (w0 > 0) & (w1 > 0)
    if not valid.any():
        return None
    variance = np.zeros(OTSU_BINS - 1)
    variance[valid] = w0[valid] * w1[valid] * (m0[valid] / w0[valid] - m1[valid] / w1[valid]) ** 2
    t = int(np.argmax(variance))
    if variance[t] <= 0:
        return None
    return idx > t


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


def counting_passes(patch):
    """Patch segmentation's selector to record each pass it makes over the grid positions; returns the record."""
    passes = []
    select = segmentation._kth_smallest

    def counted(values, n, count, k):
        def read(s):
            if s.step is None and s.start == 0:  # a pass's first block: the sample's slice has a step
                passes.append(k)
            return values(s)

        return select(read, n, count, k)

    patch.setattr(segmentation, "_kth_smallest", counted)
    return passes


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

    @pytest.mark.parametrize("block", [7, 1000, segmentation._SCAN_BLOCK])
    @pytest.mark.parametrize("kind", ["normal", "integers"])
    def test_blocks_match_the_whole_array_formula(self, monkeypatch, rng, block, kind):
        """Several blocks, the minimum and the maximum each in more than one of them, and for integers every
        value on a bin edge (the bins are one unit wide): the blocked split equals the whole-array one."""
        monkeypatch.setattr(segmentation, "_SCAN_BLOCK", block)
        n = max(3 * block + 5, 5000)
        if kind == "normal":
            values = rng.normal(100.0, 30.0, n).astype(np.float32)
            lo, hi = np.float32(-50.0), np.float32(300.0)
        else:
            values = rng.integers(0, OTSU_BINS + 1, n).astype(np.float32)
            lo, hi = np.float32(0), np.float32(OTSU_BINS)
        values[[0, block + 1, n - 2]] = lo
        values[[1, 2 * block + 3, n - 1]] = hi
        want = whole_array_otsu_upper_class(values)
        assert want is not None
        assert np.array_equal(otsu_upper_class(values), want)
        cube = values[: 4 * (n // 4)].reshape(2, 2, -1)
        assert np.array_equal(otsu_upper_class(cube), whole_array_otsu_upper_class(cube))


class TestBodyAndChestWall:
    def test_body_mask_selects_bright_block(self):
        data = np.zeros((4, 8, 8), dtype=np.float32)
        data[:, 2:6, 2:6] = 100.0
        body = body_mask(vol(data))
        assert np.array_equal(body, data == 100.0)

    def test_body_mask_constant_volume_empty(self):
        assert not body_mask(vol(np.full((3, 3, 3), 5.0))).any()

    def test_body_mask_is_the_split_of_the_whole_grid(self, rng):
        """Binned over the volume's stored range, across three scan blocks, the body is the split that the
        whole-array formula gives."""
        data = rng.normal(100.0, 30.0, (3, 150, 300)).astype(np.float32)
        assert data.size > 2 * segmentation._SCAN_BLOCK
        assert np.array_equal(body_mask(vol(data)), whole_array_otsu_upper_class(data))

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
        mask = classical_mask(series.volumes, SegmentationConfig())
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

    def test_constant_breast_is_a_subject_error(self, caplog):
        pre = vol(np.full((3, 4, 5), 80.0))
        breast = np.zeros((3, 4, 5), dtype=bool)
        breast[:, :2, :] = True
        with caplog.at_level(logging.WARNING):
            with pytest.raises(SubjectError, match="^degenerate intensity histogram inside breast$"):
                segment_dense(pre, breast, SegmentationConfig())
        assert not caplog.records  # segment names the subject when it skips it

    def test_empty_breast_rejected(self):
        pre = vol(np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError):
            segment_dense(pre, np.zeros((2, 2, 2), dtype=bool), SegmentationConfig())

    def test_phantom_fat_dense_partition_breast(self, phantom_subject):
        series, _ = phantom_subject
        breast = segment_breast(series.pre, *body_and_planes(series.pre), SegmentationConfig())
        mask = classical_mask(series.volumes, SegmentationConfig())
        fat_or_dense = mask.tissue(FAT) | mask.tissue(DENSE)
        # heart has precedence but never overlaps the breast territory
        assert np.array_equal(fat_or_dense, breast)


# The selector's sample size: at 16 every exactness case below reads at
# least twice as many values, so the sample is strided and the selector
# makes at least one pass of the float64 differences; at the default the
# sample holds them all and no pass is made.
SAMPLES = [16, volume_module._SAMPLE]


class TestEnhancementThreshold:
    # Each case equals the sorted percentile of the float64 image with
    # numpy's warnings raised as errors: a RuntimeWarning on stderr would
    # break the one-line error contract of a failing run.

    @staticmethod
    def threshold_and_reference(pre, post, q, sample):
        """The threshold of float32 ``pre`` and ``post`` with the selector's sample patched to ``sample``, and
        the oracle's. Asserts that the selector made a pass exactly when the grid holds twice the sample or
        more, so that the sample is strided and leaves values out."""
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("error")
            patch.setattr(volume_module, "_SAMPLE", sample)
            passes = counting_passes(patch)
            got = _enhancement_threshold(vol(pre), vol(post), q)
        assert bool(passes) == (pre.size >= 2 * sample)
        return got, percentile_oracle(post.astype(np.float64) - pre.astype(np.float64), q)

    @given(st.integers(0, 2**32 - 1), st.floats(0.5, 100.0), st.booleans(), st.sampled_from(SAMPLES))
    def test_equals_the_percentile_of_the_subtraction_image(self, seed, q, ties, sample):
        """The threshold is the percentile of the float64 subtraction image, though it forms no float64 grid."""
        rng = np.random.default_rng(seed)
        shape = (3, 5, 7)
        pre = rng.integers(0, 4, shape) if ties else rng.normal(100.0, 20.0, shape)
        post = pre + (rng.integers(-1, 3, shape) if ties else rng.normal(5.0, 20.0, shape))
        pre, post = pre.astype(np.float32), post.astype(np.float32)
        if not (post > pre).any():
            return
        got, want = self.threshold_and_reference(pre, post, q, sample)
        assert got == want

    @pytest.mark.parametrize("sample", SAMPLES)
    @pytest.mark.parametrize("block", [7, volume_module._SCAN_BLOCK])
    @pytest.mark.parametrize("q", [0.5, 25.0, 50.0, 75.0, 99.0, 100.0])
    def test_exact_where_the_float32_difference_rounds(self, monkeypatch, q, block, sample):
        """post near 2**30 less a pre with low bits: the difference needs more than 24 bits, so voxels that
        share a float32 difference differ in float64. With a 16-value sample, a 7-voxel block puts ties
        across the block edges of the selector's passes."""
        monkeypatch.setattr(volume_module, "_SCAN_BLOCK", block)
        rng = np.random.default_rng(3)
        shape = (4, 6, 9)
        pre = rng.uniform(0.0, 300.0, shape).astype(np.float32)
        post = (2.0**30 + 128.0 * rng.integers(-2, 3, shape)).astype(np.float32)
        rounded = post - pre
        exact = post.astype(np.float64) - pre.astype(np.float64)
        assert 10 * np.unique(rounded).size < np.unique(exact).size
        got, want = self.threshold_and_reference(pre, post, q, sample)
        assert got == want

    @pytest.mark.parametrize("sample", SAMPLES)
    @pytest.mark.parametrize("q", [0.5, 5.0, 50.0, 95.0, 100.0])
    def test_exact_where_the_float32_difference_overflows(self, q, sample):
        """post - pre beyond float32's range in both directions: infinite in float32, finite in float64."""
        rng = np.random.default_rng(5)
        shape = (3, 4, 5)
        big = float(np.finfo(np.float32).max)
        pre = rng.normal(0.0, 10.0, shape)
        post = pre + rng.normal(5.0, 10.0, shape)
        pre.flat[:9], post.flat[:9] = -big * rng.uniform(0.6, 1.0, 9), big * rng.uniform(0.6, 1.0, 9)
        pre.flat[9:12], post.flat[9:12] = big * rng.uniform(0.6, 1.0, 3), -big * rng.uniform(0.6, 1.0, 3)
        pre, post = pre.astype(np.float32), post.astype(np.float32)
        with np.errstate(over="ignore"):
            assert np.isinf(post - pre).sum() == 12
        assert np.isfinite(post.astype(np.float64) - pre.astype(np.float64)).all()
        got, want = self.threshold_and_reference(pre, post, q, sample)
        assert got == want

    @pytest.mark.parametrize("sample", SAMPLES)
    @pytest.mark.parametrize("q", [10.0, 30.0, 50.0, 70.0, 90.0, 99.0])
    def test_exact_with_ties_at_rank_k(self, q, sample):
        """Integer-valued volumes, as scanners write them: long runs of equal differences, one at rank k."""
        rng = np.random.default_rng(9)
        shape = (5, 6, 7)
        pre = rng.integers(0, 4, shape).astype(np.float32)
        post = pre + rng.choice(np.float32([-1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0]), shape)
        ordered = np.sort((post - pre).ravel())
        k = nearest_rank_index(ordered.size, q)
        assert ordered[k] in (ordered[k - 1], ordered[min(k + 1, ordered.size - 1)])
        got, want = self.threshold_and_reference(pre, post, q, sample)
        assert got == want


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
        assert_same_outcome(_drop_small_components(mask.copy(), floor), full_volume_drop_small_components(mask, floor))

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

    @given(
        masks(), st.booleans(), st.floats(1.0, 100.0), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
        st.sampled_from(SAMPLES),
    )
    def test_segment_heart_matches_full_volume(self, body, chest_wall, pct, seed, fraction, sample):
        if chest_wall:
            # a full front row in every slice, and at most half of each row
            # behind it, put the chest wall at y = 0 and the rest behind it
            body[:, 0, :] = True
            body[:, 1:, body.shape[2] // 2:] = False
        sub = np.random.default_rng(seed).integers(0, 4, body.shape)
        cfg = SegmentationConfig(heart_enhancement_percentile=pct, min_component_voxels=min_voxels(body, fraction))
        pre, post = vol(np.zeros(body.shape)), vol(sub)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(volume_module, "_SAMPLE", sample)
            passes = counting_passes(patch)
            got = outcome(segment_heart, pre, post, body, chest_wall_planes(body), cfg)
        # unless nothing enhances, the threshold is selected with a pass once the sample is strided
        assert bool(passes) == (sub.size >= 2 * sample and (sub > 0).any())
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


def painted_labels(mask):
    """``_label``'s runs painted into an int32 label grid of ``mask``'s shape, and the component count."""
    start, stop, label, count = _label(mask)
    labels = np.zeros(mask.shape, dtype=np.int32)
    flat = labels.reshape(-1)
    for first, end, value in zip(start, stop, label):
        flat[first:end] = value
    return labels, count


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
        got, count = painted_labels(mask)
        assert count == n
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(9, 40, 70), (30, 17, 3), (4, 3, 130)])
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.9])
    def test_label_matches_ndimage_on_larger_masks(self, shape, density):
        """Many runs per row and many rows, so run numbers and neighbour ranges cross row ends."""
        mask = np.random.default_rng(7).random(shape) < density
        want, n = ndimage.label(mask, structure=CONN26)
        got, count = painted_labels(mask)
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
        mask = classical_mask(series.volumes, SegmentationConfig())
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
        mask = classical_mask(series.volumes, SegmentationConfig())
        # phantom noise makes intensity ties vanishingly unlikely
        assert mask.counts()["air"] == math.ceil(0.05 * series.pre.data.size)

    def test_degenerate_dense_split_skips_the_subject(self, tmp_path, caplog):
        # Fat, dense and tumor share one pre-contrast intensity and there is
        # no noise, so D000's breast histogram holds a single value.
        intensities = {"air": 0.0, "fat": 400.0, "dense": 400.0, "heart": 300.0, "tumor": 400.0}
        cfg = PhantomConfig(intensities=intensities, groups=(GroupSpec("D", 1, noise_sigma=0.0),))
        (flat,) = generate_phantom(cfg, tmp_path / "flat", jobs=1)
        (good,) = generate_phantom(PhantomConfig(groups=(GroupSpec("A", 1),)), tmp_path / "good", jobs=1)
        with caplog.at_level(logging.WARNING):
            with pytest.raises(SubjectError, match="^degenerate intensity histogram inside breast$"):
                classical_mask(load_series(flat).volumes, SegmentationConfig())
        assert not caplog.records
        save_manifest(tmp_path, [dataclasses.replace(entry, mask=None) for entry in (flat, good)])
        assert main(["segment", "--manifest", str(tmp_path / "manifest.json"),
                     "--out-dir", str(tmp_path / "seg"), "--jobs", "1"]) == 0
        assert [e.subject_id for e in load_manifest(tmp_path / "seg" / "manifest.json")] == ["A000"]
        assert [r.getMessage() for r in caplog.records] == [
            "subject D000 skipped: degenerate intensity histogram inside breast"
        ]

    @pytest.mark.parametrize("air_fraction", [0.05, 0.9])
    def test_labels_equal_assemble_mask_of_the_stages(self, phantom_subject, air_fraction):
        """Each stage writes its labels as it finishes; that equals assembling the stages' voxel sets.
        At an air fraction of 0.9 the air set overlaps the breast and the heart, so precedence decides."""
        series, _ = phantom_subject
        pre, cfg = series.pre, SegmentationConfig(air_fraction=air_fraction)
        body, planes = body_and_planes(pre)
        breast = segment_breast(pre, body, planes, cfg)
        dense = segment_dense(pre, breast, cfg)
        heart = segment_heart(pre, series.posts[0], body, planes, cfg)
        air = segment_air(pre, cfg)
        assert (air & breast).any() == (air & heart).any() == (air_fraction == 0.9)
        none = np.zeros(pre.data.shape, dtype=bool)
        want = assemble_mask(air, breast & ~dense, dense, heart, none, series.spacing_mm)
        assert np.array_equal(classical_mask(series.volumes, cfg).labels, want.labels)

    def test_post1_is_drawn_for_the_heart_stage_only(self, phantom_subject, monkeypatch):
        series, _ = phantom_subject
        events = []
        for name in ("segment_dense", "segment_heart"):
            stage = getattr(segmentation, name)
            monkeypatch.setattr(segmentation, name, lambda *args, stage=stage: events.append(stage.__name__) or stage(*args))

        def volumes():
            yield series.pre
            events.append("post1 drawn")
            yield series.posts[0]
            events.append("post2 drawn")

        classical_mask(volumes(), SegmentationConfig())
        assert events == ["segment_dense", "post1 drawn", "segment_heart"]
        with pytest.raises(ValidationError, match="^classical segmentation needs pre and post1; post1 is missing$"):
            classical_mask([series.pre], SegmentationConfig())

    def test_deterministic(self, phantom_subject):
        series, _ = phantom_subject
        a = classical_mask(series.volumes, SegmentationConfig())
        b = classical_mask(series.volumes, SegmentationConfig())
        assert np.array_equal(a.labels, b.labels)

    def test_peak_allocation_within_two_volumes_three_byte_grids_and_2_mib(self, tmp_path):
        """Loading pre and post1 as ``segment`` draws them and segmenting them lifts the resident set by at most
        those two volumes, three byte grids (the labels, the body mask and one stage's voxel set) and 2 MiB of
        block- and run-sized temporaries. Resident pages count the mapped volumes, which tracemalloc does not
        see. Drawing post1 before the chain needs it holds it beside the earlier stages' grids, and crosses the
        bound on this grid."""
        dims = (256, 256, 48)
        (entry,) = generate_phantom(PhantomConfig(dims=dims, groups=(GroupSpec("A", 1),)), tmp_path / "job")
        (small,) = generate_phantom(PhantomConfig(dims=(64, 64, 16), groups=(GroupSpec("A", 1),)), tmp_path / "warm")
        voxels = math.prod(dims)
        bound = 2 * 4 * voxels + 3 * voxels + 2 * 2**20
        growth = peak_rss_growth(segment_volumes, ((small.pre, small.posts[0]),), ((entry.pre, entry.posts[0]),))
        assert growth <= bound

    def test_chest_wall_planes_computed_once(self, phantom_subject, monkeypatch):
        calls = []

        def counted(body):
            calls.append(body)
            return chest_wall_planes(body)

        monkeypatch.setattr(segmentation, "chest_wall_planes", counted)
        classical_mask(phantom_subject[0].volumes, SegmentationConfig())
        assert len(calls) == 1


class TestSegmentationConfig:
    def test_rejects_bad_air_fraction(self):
        with pytest.raises(ValidationError):
            SegmentationConfig(air_fraction=0.0)
        with pytest.raises(ValidationError):
            SegmentationConfig(air_fraction=1.0)

    def test_rejects_unknown_polarity(self):
        with pytest.raises(ValidationError):
            SegmentationConfig(dense_polarity="sideways")
