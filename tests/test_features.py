import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from dcenorm import (
    MissingInputError,
    ValidationError,
    build_mapping,
    extract_features,
    generate_phantom,
    major_axis_length,
    median_filter,
    ser_map,
    washin_map,
)
from dcenorm.features import (
    FEATURE_NAMES,
    FeatureVector,
    dhog,
    pe_entropy,
    read_features_csv,
    write_features_csv,
)
from dcenorm import features as features_module
from dcenorm import volume as volume_module
from dcenorm.model import NormalizationModel
from dcenorm.phantom import GroupSpec, PhantomConfig
from dcenorm.volume import DENSE, FAT, TUMOR

from helpers import anchor_set, extract_series, labeled_scene, map_series, mask_of, read_subject, series_of, vol


def const(shape, value):
    return np.full(shape, float(value), dtype=np.float32)


def dynamic_range(arrays):
    """Max minus min over the arrays, from one whole-array min and max each: the oracle of a series' range."""
    arrays = list(arrays)
    return max(float(a.max()) for a in arrays) - min(float(a.min()) for a in arrays)


def eps_of(*arrays):
    """1e-6 of the range of the values of ``arrays``, the eps extraction takes for them as a series."""
    return 1e-6 * dynamic_range(arrays)


def ser_of(s0, s1, slast):
    return ser_map(s0, s1, slast, eps_of(s0, s1, slast))[0]


def washin_of(s0, *posts):
    return washin_map(s0, posts[0], eps_of(s0, *posts))


class TestSerMap:
    def test_worked_example(self):
        shape = (1, 1, 2)
        assert ser_of(const(shape, 10), const(shape, 30), const(shape, 50))[0, 0, 0] == 0.5

    def test_equal_first_and_last_post(self):
        shape = (1, 1, 2)
        assert np.all(ser_of(const(shape, 10), const(shape, 30), const(shape, 30)) == 1.0)

    def test_guarded_denominator_gives_zero(self):
        shape = (1, 1, 3)
        pre = const(shape, 10)
        last = pre.copy()
        last[0, 0, 0] = 50  # only this voxel has a usable denominator
        post = const(shape, 30)
        out, n_guarded = ser_map(pre, post, last, eps_of(pre, post, last))
        assert out[0, 0, 0] == 0.5
        assert out[0, 0, 1] == 0.0
        assert out[0, 0, 2] == 0.0
        assert n_guarded == 2

    def test_constant_series_is_all_zero(self):
        shape = (2, 2, 2)
        out, n_guarded = ser_map(const(shape, 7), const(shape, 7), const(shape, 7), 0.0)
        assert out.dtype == np.float32 and out.shape == shape
        assert np.all(out == 0.0)
        assert n_guarded == 8

    def test_matches_scalar_oracle(self, rng):
        shape = (3, 4, 5)
        pre = rng.uniform(0, 100, size=shape).astype(np.float32)
        p1 = rng.uniform(0, 300, size=shape).astype(np.float32)
        p2 = rng.uniform(0, 300, size=shape).astype(np.float32)
        values = np.concatenate([pre.ravel(), p1.ravel(), p2.ravel()])
        eps = 1e-6 * (values.max() - values.min())
        got = ser_of(pre, p1, p2)
        for z, y, x in ((0, 0, 0), (1, 2, 3), (2, 3, 4)):
            denom = float(p2[z, y, x]) - float(pre[z, y, x])
            expected = 0.0 if abs(denom) <= eps else (float(p1[z, y, x]) - float(pre[z, y, x])) / denom
            assert got[z, y, x] == pytest.approx(expected, rel=1e-6)


class TestWashinMap:
    def test_worked_example(self):
        shape = (1, 1, 1)
        assert washin_of(const(shape, 10), const(shape, 30))[0, 0, 0] == 2.0

    def test_no_enhancement_gives_zero(self):
        shape = (1, 1, 1)
        assert washin_of(const(shape, 10), const(shape, 10), const(shape, 99))[0, 0, 0] == 0.0

    def test_zero_baseline_uses_epsilon(self):
        shape = (1, 1, 2)
        pre = np.array([[[0.0, 10.0]]], dtype=np.float32)
        out = washin_of(pre, const(shape, 30))
        assert np.isfinite(out).all()
        assert out[0, 0, 0] > out[0, 0, 1]

    def test_constant_series_is_all_zero(self):
        shape = (2, 2, 2)
        out = washin_map(const(shape, 5), const(shape, 5), 0.0)
        assert out.dtype == np.float32 and out.shape == shape
        assert np.all(out == 0.0)


class TestPeEntropy:
    def test_uniform_enhancement_has_zero_entropy(self):
        shape = (1, 1, 8)
        tissue = np.ones(shape, dtype=bool)
        assert pe_entropy(washin_of(const(shape, 100), const(shape, 200)), tissue) == 0.0

    def test_one_value_per_bin_is_six_bits(self):
        # washin of voxel i lands exactly mid-bin i of the 64-bin
        # histogram, so every bin holds one voxel
        n = 64
        shape = (1, 1, n)
        pre = const(shape, 100)
        post = (100.0 * (np.arange(n) + 1.5)).astype(np.float32).reshape(shape)
        assert pe_entropy(washin_of(pre, post), np.ones(shape, dtype=bool)) == 6.0

    def test_empty_tissue_rejected(self):
        shape = (1, 1, 4)
        with pytest.raises(ValidationError):
            pe_entropy(washin_of(const(shape, 1), const(shape, 2)), np.zeros(shape, dtype=bool))

    def test_matches_histogram_oracle(self, rng):
        shape = (2, 4, 8)
        pre = rng.uniform(50, 150, size=shape).astype(np.float32)
        post = rng.uniform(100, 400, size=shape).astype(np.float32)
        tissue = rng.random(shape) < 0.7
        got = pe_entropy(washin_of(pre, post), tissue)

        washin = washin_of(pre, post)[tissue].astype(np.float64)
        pe = [100.0 * w for w in washin]
        lo, hi = min(pe), max(pe)
        counts = [0] * 64
        for v in pe:
            counts[min(int((v - lo) * 64 / (hi - lo)), 63)] += 1
        total = sum(counts)
        expected = -sum(c / total * math.log2(c / total) for c in counts if c)
        assert got == pytest.approx(expected, abs=1e-9)
        assert 0.0 <= got <= 6.0


class TestDhog:
    def test_linear_ramp_has_single_direction(self):
        shape = (2, 4, 9)
        ramp = np.broadcast_to(
            np.arange(9, dtype=np.float32), shape
        ).copy()
        tumor = np.zeros(shape, dtype=bool)
        tumor[1, 2, 3:6] = True
        assert dhog(np.zeros(shape, np.float32), ramp, tumor, "s0") == 0.0

    def test_nine_equal_directions(self):
        shape = (1, 5, 37)
        post = np.zeros(shape, dtype=np.float32)
        tumor = np.zeros(shape, dtype=bool)
        for k in range(9):
            theta = (k + 0.5) * math.pi / 9.0
            x0 = 2 + 4 * k
            tumor[0, 2, x0] = True
            post[0, 2, x0 + 1] = math.cos(theta)
            post[0, 2, x0 - 1] = -math.cos(theta)
            post[0, 3, x0] = math.sin(theta)
            post[0, 1, x0] = -math.sin(theta)
        assert dhog(np.zeros(shape, np.float32), post, tumor, "s0") == pytest.approx(math.log2(9), abs=1e-12)

    def test_flat_tumor_warns_and_returns_zero(self, caplog):
        shape = (1, 4, 4)
        tumor = np.zeros(shape, dtype=bool)
        tumor[0, 1:3, 1:3] = True
        with caplog.at_level(logging.WARNING):
            assert dhog(const(shape, 5), const(shape, 9), tumor, "s0") == 0.0
        assert "subject s0: all tumor gradients are zero" in caplog.messages

    def test_empty_tumor_rejected(self):
        shape = (1, 2, 2)
        with pytest.raises(ValidationError):
            dhog(const(shape, 1), const(shape, 2), np.zeros(shape, dtype=bool), "s0")

    def test_matches_loop_oracle(self, rng):
        shape = (3, 6, 7)
        pre = rng.uniform(0, 50, size=shape).astype(np.float32)
        post = rng.uniform(0, 200, size=shape).astype(np.float32)
        tumor = rng.random(shape) < 0.4
        got = dhog(pre, post, tumor, "s0")

        sub = post.astype(np.float64) - pre.astype(np.float64)
        nz, ny, nx = shape
        weights = [0.0] * 9
        for z, y, x in np.argwhere(tumor):
            if x == 0:
                gx = sub[z, y, 1] - sub[z, y, 0]
            elif x == nx - 1:
                gx = sub[z, y, x] - sub[z, y, x - 1]
            else:
                gx = (sub[z, y, x + 1] - sub[z, y, x - 1]) / 2.0
            if y == 0:
                gy = sub[z, 1, x] - sub[z, 0, x]
            elif y == ny - 1:
                gy = sub[z, y, x] - sub[z, y - 1, x]
            else:
                gy = (sub[z, y + 1, x] - sub[z, y - 1, x]) / 2.0
            mag = math.hypot(gx, gy)
            if mag > 0:
                theta = math.atan2(gy, gx) % math.pi
                weights[min(int(theta * 9 / math.pi), 8)] += mag
        total = sum(weights)
        expected = -sum(w / total * math.log2(w / total) for w in weights if w > 0)
        assert got == pytest.approx(expected, abs=1e-9)


class TestMajorAxis:
    def test_two_voxels_ten_mm_apart(self):
        tumor = np.zeros((1, 1, 11), dtype=bool)
        tumor[0, 0, 0] = True
        tumor[0, 0, 10] = True
        assert major_axis_length(tumor, (1.0, 1.0, 1.0)) == 20.0

    def test_spacing_scales_distances(self):
        tumor = np.zeros((2, 1, 1), dtype=bool)
        tumor[:, 0, 0] = True
        assert major_axis_length(tumor, (1.0, 1.0, 4.0)) == 8.0

    def test_ball_matches_continuous_value(self):
        r = 6.0
        grid = np.arange(15) - 7.0
        zz, yy, xx = np.meshgrid(grid, grid, grid, indexing="ij")
        ball = zz**2 + yy**2 + xx**2 <= r**2
        got = major_axis_length(ball, (1.0, 1.0, 1.0))
        assert got == pytest.approx(4.0 * r / math.sqrt(5.0), rel=0.10)

    def test_needs_two_voxels(self):
        tumor = np.zeros((1, 1, 3), dtype=bool)
        tumor[0, 0, 1] = True
        with pytest.raises(ValidationError):
            major_axis_length(tumor, (1.0, 1.0, 1.0))

    def test_rotation_by_axis_swap_invariant(self):
        tumor = np.zeros((5, 5, 5), dtype=bool)
        tumor[2, 1:4, 2] = True
        swapped = np.swapaxes(tumor, 1, 2)
        a = major_axis_length(tumor, (1.0, 1.0, 1.0))
        b = major_axis_length(swapped, (1.0, 1.0, 1.0))
        assert a == pytest.approx(b, rel=1e-12)


def random_scene(rng, shape=(4, 6, 8), n_posts=3, tumor=True, spacing=(0.9, 1.1, 2.0)):
    labels = labeled_scene(shape, tumor=tumor)
    pre = rng.uniform(0, 100, size=shape).astype(np.float32)
    posts = [rng.uniform(50, 400, size=shape).astype(np.float32) for _ in range(n_posts)]
    series = series_of(pre, posts, spacing=spacing)
    return series, mask_of(labels, spacing)


def entropy_bits(weights):
    total = sum(weights)
    if total <= 0:
        return 0.0
    return -sum(w / total * math.log2(w / total) for w in weights if w > 0)


def features_oracle(series, mask):
    """Independent recomputation of all 15 features in float64."""
    labels = mask.labels
    pre = series.pre.data.astype(np.float64)
    posts = [p.data.astype(np.float64) for p in series.posts]
    pool = np.concatenate([pre.ravel()] + [p.ravel() for p in posts])
    eps = 1e-6 * (pool.max() - pool.min())

    s0, s1, slast = pre, posts[0], posts[-1]
    denom = slast - s0
    ser = np.where(np.abs(denom) <= eps, 0.0, (s1 - s0) / np.where(denom == 0, 1.0, denom))
    washin = (s1 - s0) / np.maximum(s0, eps)

    tissue = (labels == 3) & (labels != 5)
    tumor = labels == 5
    fat = labels == 2
    dense = labels == 3

    def stats(values):
        v = np.asarray(values, dtype=np.float64)
        mean = v.sum() / v.size
        var = ((v - mean) ** 2).sum() / v.size
        return mean, math.sqrt(var)

    out = {}
    out["F1"], out["F6"] = stats(ser[tissue])
    out["F2"] = stats(ser[tumor])[0]
    out["F3"] = stats(washin[tissue])[0]
    out["F4"], out["F5"] = stats(washin[tumor])

    pe = 100.0 * washin[tissue]
    lo, hi = pe.min(), pe.max()
    counts = [0] * 64
    for v in pe:
        counts[min(int((v - lo) * 64 / (hi - lo)), 63)] += 1
    out["F7"] = entropy_bits(counts)

    sub = s1 - s0
    nz, ny, nx = sub.shape
    weights = [0.0] * 9
    for z, y, x in np.argwhere(tumor):
        gx = (
            sub[z, y, min(x + 1, nx - 1)] - sub[z, y, max(x - 1, 0)]
        ) / (min(x + 1, nx - 1) - max(x - 1, 0))
        gy = (
            sub[z, min(y + 1, ny - 1), x] - sub[z, max(y - 1, 0), x]
        ) / (min(y + 1, ny - 1) - max(y - 1, 0))
        mag = math.hypot(gx, gy)
        if mag > 0:
            weights[min(int((math.atan2(gy, gx) % math.pi) * 9 / math.pi), 8)] += mag
    out["F8"] = entropy_bits(weights)

    sx, sy, sz = series.spacing_mm
    pts = np.array([[x * sx, y * sy, z * sz] for z, y, x in np.argwhere(tumor)])
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / pts.shape[0]
    out["F9"] = 4.0 * math.sqrt(max(np.linalg.eigvalsh(cov).max(), 0.0))

    post1 = posts[0]
    out["F10"], out["F11"] = stats(post1[fat])
    out["F12"], out["F13"] = stats(post1[dense])
    out["F14"], out["F15"] = stats(post1[tumor])
    return out


class TestExtractFeatures:
    def test_full_vector_matches_oracle(self, rng):
        series, mask = random_scene(rng)
        got = extract_series(series, mask)
        expected = features_oracle(series, mask)
        for name in FEATURE_NAMES:
            assert got.values[name] == pytest.approx(
                expected[name], rel=1e-6, abs=1e-9
            ), name

    def test_absent_tumor_blanks_tumor_features(self, rng, caplog):
        series, mask = random_scene(rng, tumor=False)
        with caplog.at_level(logging.WARNING):
            fv = extract_series(series, mask)
        for name in ("F2", "F4", "F5", "F8", "F9", "F14", "F15"):
            assert fv.values[name] is None, name
        for name in ("F1", "F3", "F6", "F7", "F10", "F11", "F12", "F13"):
            assert fv.values[name] is not None, name
        assert "tumor" in caplog.text

    def test_single_post_blanks_enhancement_ratio_features(self, rng):
        series, mask = random_scene(rng, n_posts=1)
        fv = extract_series(series, mask)
        assert fv.values["F1"] is None
        assert fv.values["F2"] is None
        assert fv.values["F6"] is None
        assert fv.values["F3"] is not None

    def test_single_voxel_tumor_blanks_major_axis(self, rng):
        series, mask = random_scene(rng)
        labels = np.array(mask.labels)
        tumor_idx = np.argwhere(labels == 5)
        labels[tuple(tumor_idx[0])] = 3
        fv = extract_series(series, mask_of(labels, series.spacing_mm))
        assert fv.values["F9"] is None
        assert fv.values["F14"] is not None

    def test_constant_fat_region(self, rng):
        series, mask = random_scene(rng)
        post1 = np.array(series.posts[0].data)
        post1[mask.tissue(2)] = 77.0
        patched = series_of(
            series.pre.data, [post1] + [p.data for p in series.posts[1:]],
            spacing=series.spacing_mm,
        )
        fv = extract_series(patched, mask)
        assert fv.values["F10"] == 77.0
        assert fv.values["F11"] == 0.0

    def test_mask_dims_mismatch_rejected(self, rng):
        series, _ = random_scene(rng)
        small = mask_of(labeled_scene((4, 6, 8))[:, :, :6])
        with pytest.raises(ValidationError, match="dims"):
            extract_series(series, small)

    def test_mask_spacing_mismatch_rejected(self, rng):
        series, mask = random_scene(rng)
        other = mask_of(mask.labels, tuple(2.0 * s for s in series.spacing_mm))
        with pytest.raises(ValidationError, match="mask and series are on different grids"):
            extract_series(series, other)

    def test_each_drawn_volume_is_checked_against_the_mask(self, rng):
        """A post on another grid is refused as it is drawn, though pre is on the mask's grid."""
        series, mask = random_scene(rng)
        other = vol(series.posts[0].data, tuple(2.0 * s for s in series.spacing_mm))
        volumes = iter((series.pre, other, *series.posts[1:]))
        with pytest.raises(ValidationError, match="mask and series are on different grids"):
            extract_features(series.subject_id, mask, volumes, len(series.posts))
        assert next(volumes) is series.posts[1]  # nothing drawn after the refused post

    def test_denoise_equals_prefiltered_series(self, rng):
        series, mask = random_scene(rng)
        denoised = extract_series(series, mask, denoise_radius=1)
        filtered = series_of(
            median_filter(series.pre, 1).data,
            [median_filter(p, 1).data for p in series.posts],
            spacing=series.spacing_mm,
        )
        plain = extract_series(filtered, mask)
        assert denoised.values == plain.values
        assert denoised.denoised
        assert not plain.denoised

    def test_denoising_leaves_major_axis_alone(self, rng):
        series, mask = random_scene(rng)
        a = extract_series(series, mask)
        b = extract_series(series, mask, denoise_radius=1)
        assert a.values["F9"] == b.values["F9"]

    def test_major_axis_ignores_intensities(self, rng):
        series, mask = random_scene(rng)
        mapping = build_mapping(
            anchor_set("s", 0, 50, 120, 300),
            NormalizationModel(10, 80, 200, 500, "arch", 1, "now"),
        )
        mapped = map_series(mapping, series)
        a = extract_series(series, mask)
        b = extract_series(mapped, mask, normalized=True)
        assert a.values["F9"] == b.values["F9"]
        assert b.normalized

    def test_common_scale_invariance(self, rng):
        series, mask = random_scene(rng)
        scaled = series_of(
            series.pre.data * 4.0,
            [p.data * 4.0 for p in series.posts],
            spacing=series.spacing_mm,
        )
        a = extract_series(series, mask)
        b = extract_series(scaled, mask)
        for name in ("F1", "F2", "F3", "F4", "F5", "F6", "F9"):
            assert b.values[name] == a.values[name], name
        for name in ("F7", "F8"):
            assert b.values[name] == pytest.approx(a.values[name], abs=1e-9), name
        for name in ("F10", "F11", "F12", "F13", "F14", "F15"):
            assert b.values[name] == 4.0 * a.values[name], name

    def test_spreads_non_negative_entropies_bounded(self, rng):
        series, mask = random_scene(rng)
        fv = extract_series(series, mask)
        for name in ("F6", "F11", "F13", "F15"):
            assert fv.values[name] >= 0.0
        assert 0.0 <= fv.values["F7"] <= 6.0
        assert 0.0 <= fv.values["F8"] <= math.log2(9)


class TestFeatureCsv:
    def _rows(self, rng):
        series, mask = random_scene(rng)
        full = extract_series(series, mask)
        series2, mask2 = random_scene(rng, tumor=False)
        partial = extract_series(
            series_of(series2.pre.data, [p.data for p in series2.posts],
                      subject_id="s1", spacing=series2.spacing_mm),
            mask2,
            denoise_radius=1,
        )
        return [full, partial]

    def test_round_trip_preserves_missing_fields(self, tmp_path, rng):
        rows = self._rows(rng)
        write_features_csv(tmp_path / "f.csv", rows)
        back = read_features_csv(tmp_path / "f.csv")
        # Values compare by their bits: == would let 0.0 stand for -0.0.
        def bits(row):
            values = {n: None if v is None else np.float64(v).view(np.uint64) for n, v in row.values.items()}
            return row.subject_id, values, row.denoised, row.normalized

        assert [bits(r) for r in back] == [bits(r) for r in rows]

    def test_missing_values_are_empty_cells(self, tmp_path, rng):
        rows = self._rows(rng)
        write_features_csv(tmp_path / "f.csv", rows)
        lines = (tmp_path / "f.csv").read_text().strip().splitlines()
        assert lines[0].startswith("subject_id,F1,")
        assert ",," in lines[2]

    def test_header_mismatch_rejected(self, tmp_path):
        (tmp_path / "f.csv").write_text("subject_id,F1\ns,1.0\n")
        with pytest.raises(ValidationError, match="header"):
            read_features_csv(tmp_path / "f.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            read_features_csv(tmp_path / "nope.csv")

    def test_vector_requires_all_names(self):
        with pytest.raises(ValidationError, match="F15"):
            FeatureVector("s", {n: 0.0 for n in FEATURE_NAMES[:-1]})


# Whole-grid references: extraction from SER and washin maps of the
# whole grid, and dhog and the major axis over the whole grid.
# dcenorm.features evaluates the maps at tissue and tumor voxels only
# and the two kernels on the tumor's box; it must match these bit for
# bit.


def full_grid_dhog(series, tumor):
    if not tumor.any():
        raise ValidationError("gradient histogram of an empty tumor set")
    sub = series.posts[0].data.astype(np.float64) - series.pre.data.astype(np.float64)
    nz, ny, nx = sub.shape
    gx = np.gradient(sub, axis=2) if nx > 1 else np.zeros_like(sub)
    gy = np.gradient(sub, axis=1) if ny > 1 else np.zeros_like(sub)
    mag = np.hypot(gx[tumor], gy[tumor])
    if not (mag > 0).any():
        return 0.0
    theta = np.mod(np.arctan2(gy[tumor], gx[tumor]), np.pi)
    bins = np.minimum((theta * (9 / np.pi)).astype(np.int64), 8)
    hist = np.bincount(bins, weights=mag, minlength=9)
    total = hist.sum()
    if total <= 0:
        return 0.0
    p = hist[hist > 0] / total
    return float(-(p * np.log2(p)).sum())


def full_grid_major_axis_length(tumor, spacing_mm):
    coords_idx = np.argwhere(tumor)
    if coords_idx.shape[0] < 2:
        raise ValidationError(f"major axis needs >= 2 tumor voxels, got {coords_idx.shape[0]}")
    sx, sy, sz = spacing_mm
    coords = coords_idx[:, ::-1].astype(np.float64) * np.array([sx, sy, sz])
    cov = np.cov(coords, rowvar=False, bias=True)
    largest = float(np.linalg.eigvalsh(cov).max())
    return 4.0 * math.sqrt(max(largest, 0.0))


def whole_grid_extract_features(series, mask, denoise_radius=None, normalized=False):
    def stats(values):
        v = values.astype(np.float64)
        return float(v.mean()), float(v.std())

    pool = np.concatenate([v.data.ravel() for v in series.volumes])
    eps = 1e-6 * (float(pool.max()) - float(pool.min()))  # of the series as given, before any filter
    work = series
    if denoise_radius is not None:
        work = replace(
            series,
            pre=median_filter(series.pre, denoise_radius),
            posts=tuple(median_filter(p, denoise_radius) for p in series.posts),
        )
    dense = mask.tissue(DENSE)
    fat = mask.tissue(FAT)
    tumor = mask.tissue(TUMOR)
    tissue = dense & ~tumor
    values = {name: None for name in FEATURE_NAMES}
    s0, s1, slast = work.pre.data, work.posts[0].data, work.posts[-1].data
    ser = ser_map(s0, s1, slast, eps)[0] if len(work.posts) >= 2 else None
    washin = washin_map(s0, s1, eps)
    post1 = work.posts[0].data
    if tissue.any():
        if ser is not None:
            values["F1"], values["F6"] = stats(ser[tissue])
        values["F3"] = stats(washin[tissue])[0]
        values["F7"] = pe_entropy(washin, tissue)
    if tumor.any():
        if ser is not None:
            values["F2"] = stats(ser[tumor])[0]
        values["F4"], values["F5"] = stats(washin[tumor])
        values["F8"] = full_grid_dhog(work, tumor)
        if int(np.count_nonzero(tumor)) >= 2:
            values["F9"] = full_grid_major_axis_length(tumor, series.spacing_mm)
        values["F14"], values["F15"] = stats(post1[tumor])
    if fat.any():
        values["F10"], values["F11"] = stats(post1[fat])
    if dense.any():
        values["F12"], values["F13"] = stats(post1[dense])
    return FeatureVector(series.subject_id, values, denoise_radius is not None, normalized)


def same_bits(a, b):
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


def assert_same_features(got, expected):
    for name in FEATURE_NAMES:
        a, b = got.values[name], expected.values[name]
        assert (a is None) == (b is None), name
        assert a is None or same_bits(a, b), (name, a, b)


SERIES_KINDS = ("random", "guarded", "constant")
LABEL_KINDS = ("mixed", "tumor only", "tissue only", "no labels", "tumor on faces")


def scene_of(rng, shape, n_posts, series_kind, label_kind):
    """Series and mask on a small grid; see SERIES_KINDS and LABEL_KINDS.

    "guarded" makes the last post equal the pre-contrast at about half
    the voxels (a zero SER denominator) and zeroes the pre-contrast on
    the low half of x (washin divides by eps there, also after a median
    filter). "tumor on faces" puts the tumor on the grid's y and x
    faces.
    """
    pre = rng.uniform(0, 100, size=shape)
    posts = [rng.uniform(50, 400, size=shape) for _ in range(n_posts)]
    if series_kind == "guarded":
        posts[-1] = np.where(rng.random(shape) < 0.5, pre, posts[-1])
        pre[:, :, : (shape[2] + 1) // 2] = 0.0
    elif series_kind == "constant":
        pre = np.full(shape, 7.0)
        posts = [pre] * n_posts
    if label_kind == "mixed":
        labels = rng.integers(0, 6, size=shape)
    elif label_kind == "tumor only":
        labels = np.where(rng.random(shape) < 0.5, TUMOR, 0)
    elif label_kind == "tissue only":
        labels = np.where(rng.random(shape) < 0.5, DENSE, FAT)
    elif label_kind == "no labels":
        labels = rng.choice([0, 1, 4], size=shape)
    else:
        labels = rng.integers(0, 5, size=shape)
        face = np.zeros(shape, dtype=bool)
        face[:, [0, -1], :] = True
        face[:, :, [0, -1]] = True
        labels[face & (rng.random(shape) < 0.6)] = TUMOR
    return series_of(pre, posts, spacing=(0.9, 1.1, 2.0)), mask_of(labels, (0.9, 1.1, 2.0))


@st.composite
def scenes(draw):
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 7), st.integers(1, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return scene_of(
        rng, shape, draw(st.integers(1, 3)),
        draw(st.sampled_from(SERIES_KINDS)), draw(st.sampled_from(LABEL_KINDS)),
    )


@st.composite
def tumors(draw):
    """A series and a non-empty tumor mask, often on the grid's faces."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tumor = rng.random(shape) < draw(st.sampled_from([0.05, 0.3, 0.9]))
    tumor[tuple(draw(st.integers(0, k - 1)) for k in shape)] = True
    series = series_of(rng.uniform(0, 50, size=shape), [rng.uniform(0, 200, size=shape)])
    return series, tumor


F32_MAX = float(np.finfo(np.float32).max)
F32_EXTREMES = (
    0.0, -0.0, 1.0, -1.0, F32_MAX, -F32_MAX,
    float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).smallest_subnormal),
)


@st.composite
def kinetic_arrays(draw):
    """Finite float32 s0, s1 and slast of one drawn shape of 1-3 axes; see SERIES_KINDS.

    Values are any finite float32, with extremes, zeros and negatives
    drawn often. "guarded" zeroes s0 at some elements and then makes
    slast equal s0 at others, a zero SER denominator.
    """
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6))
    values = st.one_of(st.sampled_from(F32_EXTREMES), st.floats(width=32, allow_nan=False, allow_infinity=False))
    s0, s1, slast = (draw(hnp.arrays(np.float32, shape, elements=values)) for _ in range(3))
    kind = draw(st.sampled_from(SERIES_KINDS))
    if kind == "guarded":
        s0 = np.where(draw(hnp.arrays(bool, shape)), np.float32(0), s0)
        slast = np.where(draw(hnp.arrays(bool, shape)), s0, slast)
    elif kind == "constant":
        s0 = s1 = slast = np.full(shape, s0.flat[0])
    return s0, s1, slast


class TestGatheredExtraction:
    """Extraction equals the whole-grid reference bit for bit."""

    @given(scenes(), st.sampled_from([None, 1, 2]))
    def test_matches_whole_grid_reference(self, scene, radius):
        series, mask = scene
        got = extract_series(series, mask, denoise_radius=radius)
        assert_same_features(got, whole_grid_extract_features(series, mask, denoise_radius=radius))

    @pytest.mark.parametrize("label_kind", LABEL_KINDS)
    @pytest.mark.parametrize("series_kind", SERIES_KINDS)
    @pytest.mark.parametrize("shape, n_posts", [
        ((3, 6, 7), 3), ((3, 6, 7), 1), ((2, 1, 9), 2), ((2, 9, 1), 2), ((1, 1, 1), 2),
    ])
    def test_edge_cases_match_whole_grid_reference(self, shape, n_posts, series_kind, label_kind, caplog):
        series, mask = scene_of(np.random.default_rng(7), shape, n_posts, series_kind, label_kind)
        with caplog.at_level(logging.WARNING):
            got = extract_series(series, mask)
        assert_same_features(got, whole_grid_extract_features(series, mask))
        assert caplog.text.count("no dense label") == (got.values["F3"] is None)
        assert ("no tumor label" in caplog.text) == (got.values["F4"] is None)

    def test_guarded_count_covers_only_read_voxels(self, caplog):
        shape = (1, 1, 4)
        pre = const(shape, 10)
        post = const(shape, 30)
        last = np.array([[[10.0, 10.0, 10.0, 50.0]]], dtype=np.float32)
        series = series_of(pre, [post, last])
        mask = mask_of(np.array([[[DENSE, 0, 0, DENSE]]]))
        with caplog.at_level(logging.DEBUG, logger="dcenorm.features"):
            extract_series(series, mask)
        assert "subject s0: 1 voxels guarded in enhancement ratio" in caplog.messages
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="dcenorm.features"):
            _, n_guarded = ser_map(pre, post, last, eps_of(pre, post, last))
        assert n_guarded == 3
        assert caplog.records == []

    @given(kinetic_arrays(), st.data())
    def test_kernels_are_pointwise(self, arrays, data):
        # extract_features runs the kernels on the values gathered at the
        # voxels it reads, with the whole series' eps.
        s0, s1, slast = arrays
        eps = eps_of(*arrays)
        at = np.array(data.draw(st.lists(st.integers(0, s0.size - 1), unique=True)), dtype=np.intp)
        gathered = [a.reshape(-1)[at] for a in arrays]
        ser, n_guarded = ser_map(*gathered, eps)
        washin = washin_map(*gathered[:2], eps)
        whole_ser = ser_map(s0, s1, slast, eps)[0].reshape(-1)[at]
        whole_washin = washin_map(s0, s1, eps).reshape(-1)[at]
        assert np.array_equal(ser.view(np.uint32), whole_ser.view(np.uint32))
        assert np.array_equal(washin.view(np.uint32), whole_washin.view(np.uint32))
        assert n_guarded == sum(abs(float(slast.flat[i]) - float(s0.flat[i])) <= eps for i in at)


@given(kinetic_arrays())
@example((np.float32([-F32_MAX]), np.float32([F32_MAX]), np.float32([0.0])))
@example((np.float32([0.0, -1.0, 2.0]), np.float32([1e-45, 3.0, -2.0]), np.float32([-0.0, -1.0, 7.0])))
def test_maps_are_finite_and_bounded(arrays):
    # |S1 - S0| is at most the range, and each denominator exceeds
    # eps = 1e-6 of the range or is eps, so no value passes 1e6: the
    # kernels need no finiteness scan of their inputs or outputs.
    s0, s1, slast = arrays
    eps = eps_of(*arrays)
    for out in (ser_map(s0, s1, slast, eps)[0], washin_map(s0, s1, eps)):
        assert out.dtype == np.float32 and out.shape == s0.shape
        assert np.isfinite(out).all()
        assert np.abs(out).max() <= 1.000001e6


class TestDynamicRange:
    """A volume's blocked range scan equals one min and one max of its data."""

    @pytest.mark.parametrize("holder", [0, 1, 2])
    @pytest.mark.parametrize("where", ["first", "last", "middle"])
    def test_matches_whole_volume_min_and_max(self, rng, where, holder):
        # Two full scan blocks and a partial third per volume; the minimum
        # sits in volume ``holder`` and the maximum in the next one, both
        # in the first block, the partial one, or across a block edge.
        shape = (3, 240, 190)
        volumes = [rng.normal(100.0, 20.0, shape).astype(np.float32) for _ in range(3)]
        flat_index = {"first": 5, "middle": volume_module._SCAN_BLOCK, "last": volumes[0].size - 1}[where]
        volumes[holder].reshape(-1)[flat_index] = -np.finfo(np.float32).max
        volumes[(holder + 1) % 3].reshape(-1)[flat_index - 1] = 1e30
        ranges = [vol(v).value_range for v in volumes]
        assert ranges == [(float(v.min()), float(v.max())) for v in volumes]
        got = max(hi for _, hi in ranges) - min(lo for lo, _ in ranges)
        assert np.float64(got).tobytes() == np.float64(dynamic_range(volumes)).tobytes()

    def test_single_voxel_series(self):
        assert [vol(const((1, 1, 1), v)).value_range for v in (3, -2, 7)] == [(3.0, 3.0), (-2.0, -2.0), (7.0, 7.0)]


class TestCroppedKernels:
    """dhog and the major axis on the tumor's box equal their full-grid forms."""

    @given(tumors())
    def test_dhog_matches_full_grid(self, case):
        series, tumor = case
        got = dhog(series.pre.data, series.posts[0].data, tumor, series.subject_id)
        assert same_bits(got, full_grid_dhog(series, tumor))

    @given(tumors())
    def test_major_axis_matches_full_grid(self, case):
        _, tumor = case
        if np.count_nonzero(tumor) < 2:
            with pytest.raises(ValidationError, match="got 1"):
                major_axis_length(tumor, (0.9, 1.1, 2.0))
        else:
            got = major_axis_length(tumor, (0.9, 1.1, 2.0))
            assert same_bits(got, full_grid_major_axis_length(tumor, (0.9, 1.1, 2.0)))


def box_of(lo, hi):
    return tuple(slice(a, b) for a, b in zip(lo, hi))


def face_boxes(shape):
    """The whole grid, an inner box, a corner voxel, and a box touching each of the six faces."""
    boxes = [box_of((0, 0, 0), shape), box_of((2, 3, 4), (4, 6, 7)), box_of((0, 0, 0), (1, 1, 1))]
    for axis, n in enumerate(shape):
        for lo, hi in ((0, 2), (n - 2, n)):
            start, stop = [1, 2, 3], [k - 1 for k in shape]
            start[axis], stop[axis] = lo, hi
            boxes.append(box_of(start, stop))
    return boxes


class TestBoxFilter:
    """The median filter on a box equals the whole-grid filter there, sign of zero included, and is 0 elsewhere."""

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("box_index", range(9))
    def test_matches_whole_grid_filter(self, radius, box_index):
        shape = (7, 9, 11)
        rng = np.random.default_rng(box_index)
        # Few distinct values: many ties, and 0.0 next to -0.0.
        data = rng.choice(np.array([-2.0, -0.0, 0.0, 1.0, 3.0], dtype=np.float32), size=shape)
        volume = vol(data)
        box = face_boxes(shape)[box_index]
        got = features_module._filtered(volume, box, radius)
        want = median_filter(volume, radius).data[box]
        assert got.dtype == np.float32 and got.shape == shape
        assert np.array_equal(got[box].view(np.uint32), want.view(np.uint32))
        outside = np.ones(shape, dtype=bool)
        outside[box] = False
        assert not got[outside].view(np.uint32).any()  # +0.0 outside the box

    def test_no_box_filters_nothing(self, monkeypatch):
        """A volume with no voxel to give is not filtered: a mask of background alone filters no volume."""
        monkeypatch.setattr(features_module, "median_filter", None)
        series = series_of(const((2, 2, 2), 1), [const((2, 2, 2), 2), const((2, 2, 2), 3)])
        fv = extract_series(series, mask_of(np.zeros((2, 2, 2), dtype=np.uint8)), denoise_radius=1)
        assert all(value is None for value in fv.values.values())


def forced_scene(rng, shape, n_posts, labels):
    """A series on which some read S0 filters to 0, so washin divides by eps there."""
    pre = rng.uniform(20, 100, size=shape)
    pre[:, :, : shape[2] // 2 + 1] = 0.0
    posts = [rng.uniform(50, 400, size=shape) for _ in range(n_posts)]
    labels = np.array(labels)
    labels[shape[0] // 2, shape[1] // 2, 0] = DENSE
    return series_of(pre, posts, spacing=(0.9, 1.1, 2.0)), mask_of(labels, (0.9, 1.1, 2.0))


def undecided_gap_scene(rng):
    """|Slast - S0| at the tissue voxel is 1, at most eps of the series but not of its filtered form.

    A spike in the middle post, away from every read voxel, makes the raw
    range, and so eps, about 10; the filter would remove it, leaving a
    range whose eps is about 3e-4. The tissue sits where pre is 150 and
    the last post 151, also after the filter.
    """
    shape = (5, 9, 10)
    pre = rng.uniform(100, 200, size=shape)
    posts = [rng.uniform(200, 400, size=shape) for _ in range(3)]
    posts[1][0, 0, 0] = 1e7
    pre[1:4, 2:7, 3:8] = 150.0
    posts[2][1:4, 2:7, 3:8] = 151.0
    labels = np.zeros(shape, dtype=np.uint8)
    labels[:, 4:9, 5:10] = FAT
    labels[2, 4, 5] = DENSE
    labels[2, 4, 6] = TUMOR
    return series_of(pre, posts), mask_of(labels)


def denoise_scene(case):
    rng = np.random.default_rng(11)
    shape = (4, 7, 8)
    mixed = rng.integers(0, 6, size=shape)
    if case == "low s0":
        return forced_scene(rng, shape, 3, mixed)
    if case == "undecided SER gap":
        return undecided_gap_scene(rng)
    if case == "constant series":
        return scene_of(rng, shape, 3, "constant", "mixed")
    if case == "one post":
        return forced_scene(rng, shape, 1, mixed)
    if case == "no tumor":
        return forced_scene(rng, shape, 2, rng.choice([0, FAT, DENSE], size=shape))
    labels = rng.integers(0, 3, size=shape)
    face = np.zeros(shape, dtype=bool)
    face[[0, -1], :, :] = face[:, [0, -1], :] = face[:, :, [0, -1]] = True
    labels[face] = rng.choice([DENSE, TUMOR], size=int(face.sum()))
    return forced_scene(rng, shape, 3, labels)


def widened_box_voxels(where, radius):
    idx = np.argwhere(where)
    lo = np.maximum(idx.min(axis=0) - radius, 0)
    hi = np.minimum(idx.max(axis=0) + 1 + radius, where.shape)
    return int(np.prod(hi - lo))


def read_box_sizes(mask, n_posts, radius):
    """Voxels of each read box widened by ``radius``: pre, the first post, and the last post when SER is read."""
    dense, fat, tumor = mask.tissue(DENSE), mask.tissue(FAT), mask.tissue(TUMOR)
    kinetic = dense | tumor
    gradient = np.zeros_like(tumor)
    if tumor.any():
        zs, ys, xs = np.nonzero(tumor)
        gradient[zs.min() : zs.max() + 1, max(ys.min() - 1, 0) : ys.max() + 2, max(xs.min() - 1, 0) : xs.max() + 2] = True
    reads = [kinetic | gradient, fat | kinetic | gradient]  # pre, first post
    if n_posts >= 2:
        reads.append(kinetic)  # last post; a middle one is never read
    return sorted(widened_box_voxels(where, radius) for where in reads if where.any())


def count_filtered_voxels(monkeypatch):
    """Record the voxel count of every volume that extraction median filters."""
    filtered = []
    real = features_module.median_filter
    monkeypatch.setattr(
        features_module, "median_filter", lambda volume, radius: filtered.append(volume.data.size) or real(volume, radius)
    )
    return filtered


class TestDenoisedScenes:
    """Denoised extraction equals the whole-grid reference and filters the read boxes alone."""

    @pytest.mark.parametrize("case", [
        "low s0", "undecided SER gap", "constant series", "one post", "no tumor", "labels on faces", "random",
    ])
    def test_matches_reference_filtering_read_boxes_only(self, case, rng, monkeypatch):
        series, mask = random_scene(rng) if case == "random" else denoise_scene(case)
        filtered = count_filtered_voxels(monkeypatch)
        got = extract_series(series, mask, denoise_radius=1)
        assert_same_features(got, whole_grid_extract_features(series, mask, denoise_radius=1))
        assert sorted(filtered) == read_box_sizes(mask, len(series.posts), 1)

    def test_eps_is_that_of_the_unfiltered_series(self):
        """The tissue voxel's |Slast - S0| of 1 is at most eps of the raw series, so its SER is 0."""
        series, mask = undecided_gap_scene(np.random.default_rng(11))
        assert 1e-6 * dynamic_range(v.data for v in series.volumes) > 9.0
        for radius in (None, 1):
            got = extract_series(series, mask, denoise_radius=radius)
            assert (got.values["F1"], got.values["F6"]) == (0.0, 0.0), radius


def test_denoising_filters_only_the_read_boxes(tmp_path, monkeypatch):
    cfg = PhantomConfig(dims=(48, 48, 16), groups=(GroupSpec(name="A", n_subjects=1, noise_sigma=10.0),))
    series, mask = read_subject(generate_phantom(cfg, str(tmp_path), jobs=1)[0])
    filtered = count_filtered_voxels(monkeypatch)
    got = extract_series(series, mask, denoise_radius=1)
    assert_same_features(got, whole_grid_extract_features(series, mask, denoise_radius=1))
    assert sorted(filtered) == read_box_sizes(mask, len(series.posts), 1)
    assert sum(filtered) < 0.3 * sum(v.data.size for v in series.volumes)
