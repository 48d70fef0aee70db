import logging
import math

import numpy as np
import pytest

from dcenorm import (
    MissingInputError,
    ValidationError,
    build_mapping,
    extract_features,
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
from dcenorm.mapping import apply_mapping
from dcenorm.model import NormalizationModel

from helpers import anchor_set, labeled_scene, mask_of, series_of, vol


def const(shape, value):
    return np.full(shape, float(value), dtype=np.float32)


class TestSerMap:
    def test_worked_example(self):
        shape = (1, 1, 2)
        series = series_of(const(shape, 10), [const(shape, 30), const(shape, 50)])
        assert ser_map(series).data[0, 0, 0] == 0.5

    def test_equal_first_and_last_post(self):
        shape = (1, 1, 2)
        series = series_of(const(shape, 10), [const(shape, 30), const(shape, 30)])
        assert np.all(ser_map(series).data == 1.0)

    def test_guarded_denominator_gives_zero(self):
        shape = (1, 1, 3)
        pre = const(shape, 10)
        last = pre.copy()
        last[0, 0, 0] = 50  # only this voxel has a usable denominator
        series = series_of(pre, [const(shape, 30), last])
        out = ser_map(series).data
        assert out[0, 0, 0] == 0.5
        assert out[0, 0, 1] == 0.0
        assert out[0, 0, 2] == 0.0

    def test_constant_series_is_all_zero(self):
        shape = (2, 2, 2)
        series = series_of(const(shape, 7), [const(shape, 7), const(shape, 7)])
        assert np.all(ser_map(series).data == 0.0)

    def test_needs_two_posts(self):
        shape = (1, 1, 2)
        series = series_of(const(shape, 1), [const(shape, 2)])
        with pytest.raises(ValidationError, match="post"):
            ser_map(series)

    def test_matches_scalar_oracle(self, rng):
        shape = (3, 4, 5)
        pre = rng.uniform(0, 100, size=shape).astype(np.float32)
        p1 = rng.uniform(0, 300, size=shape).astype(np.float32)
        p2 = rng.uniform(0, 300, size=shape).astype(np.float32)
        series = series_of(pre, [p1, p2])
        values = np.concatenate([pre.ravel(), p1.ravel(), p2.ravel()])
        eps = 1e-6 * (values.max() - values.min())
        got = ser_map(series).data
        for z, y, x in ((0, 0, 0), (1, 2, 3), (2, 3, 4)):
            denom = float(p2[z, y, x]) - float(pre[z, y, x])
            expected = 0.0 if abs(denom) <= eps else (float(p1[z, y, x]) - float(pre[z, y, x])) / denom
            assert got[z, y, x] == pytest.approx(expected, rel=1e-6)


class TestWashinMap:
    def test_worked_example(self):
        shape = (1, 1, 1)
        series = series_of(const(shape, 10), [const(shape, 30)])
        assert washin_map(series).data[0, 0, 0] == 2.0

    def test_no_enhancement_gives_zero(self):
        shape = (1, 1, 1)
        series = series_of(const(shape, 10), [const(shape, 10), const(shape, 99)])
        assert washin_map(series).data[0, 0, 0] == 0.0

    def test_zero_baseline_uses_epsilon(self):
        shape = (1, 1, 2)
        pre = np.array([[[0.0, 10.0]]], dtype=np.float32)
        series = series_of(pre, [const(shape, 30)])
        out = washin_map(series).data
        assert np.isfinite(out).all()
        assert out[0, 0, 0] > out[0, 0, 1]

    def test_constant_series_is_all_zero(self):
        shape = (2, 2, 2)
        series = series_of(const(shape, 5), [const(shape, 5)])
        assert np.all(washin_map(series).data == 0.0)


class TestPeEntropy:
    def test_uniform_enhancement_has_zero_entropy(self):
        shape = (1, 1, 8)
        series = series_of(const(shape, 100), [const(shape, 200)])
        tissue = np.ones(shape, dtype=bool)
        assert pe_entropy(washin_map(series).data, tissue) == 0.0

    def test_one_value_per_bin_is_six_bits(self):
        # washin of voxel i lands exactly mid-bin i of the 64-bin
        # histogram, so every bin holds one voxel
        n = 64
        shape = (1, 1, n)
        pre = const(shape, 100)
        post = (100.0 * (np.arange(n) + 1.5)).astype(np.float32).reshape(shape)
        series = series_of(pre, [post])
        assert pe_entropy(washin_map(series).data, np.ones(shape, dtype=bool)) == 6.0

    def test_empty_tissue_rejected(self):
        shape = (1, 1, 4)
        series = series_of(const(shape, 1), [const(shape, 2)])
        with pytest.raises(ValidationError):
            pe_entropy(washin_map(series).data, np.zeros(shape, dtype=bool))

    def test_matches_histogram_oracle(self, rng):
        shape = (2, 4, 8)
        pre = rng.uniform(50, 150, size=shape).astype(np.float32)
        post = rng.uniform(100, 400, size=shape).astype(np.float32)
        series = series_of(pre, [post])
        tissue = rng.random(shape) < 0.7
        got = pe_entropy(washin_map(series).data, tissue)

        washin = washin_map(series).data[tissue].astype(np.float64)
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
        series = series_of(np.zeros(shape, np.float32), [ramp])
        tumor = np.zeros(shape, dtype=bool)
        tumor[1, 2, 3:6] = True
        assert dhog(series, tumor) == 0.0

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
        series = series_of(np.zeros(shape, np.float32), [post])
        assert dhog(series, tumor) == pytest.approx(math.log2(9), abs=1e-12)

    def test_flat_tumor_warns_and_returns_zero(self, caplog):
        shape = (1, 4, 4)
        series = series_of(const(shape, 5), [const(shape, 9)])
        tumor = np.zeros(shape, dtype=bool)
        tumor[0, 1:3, 1:3] = True
        with caplog.at_level(logging.WARNING):
            assert dhog(series, tumor) == 0.0
        assert "zero" in caplog.text

    def test_empty_tumor_rejected(self):
        shape = (1, 2, 2)
        series = series_of(const(shape, 1), [const(shape, 2)])
        with pytest.raises(ValidationError):
            dhog(series, np.zeros(shape, dtype=bool))

    def test_matches_loop_oracle(self, rng):
        shape = (3, 6, 7)
        pre = rng.uniform(0, 50, size=shape).astype(np.float32)
        post = rng.uniform(0, 200, size=shape).astype(np.float32)
        series = series_of(pre, [post])
        tumor = rng.random(shape) < 0.4
        got = dhog(series, tumor)

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
        got = extract_features(series, mask)
        expected = features_oracle(series, mask)
        for name in FEATURE_NAMES:
            assert got.values[name] == pytest.approx(
                expected[name], rel=1e-6, abs=1e-9
            ), name

    def test_absent_tumor_blanks_tumor_features(self, rng, caplog):
        series, mask = random_scene(rng, tumor=False)
        with caplog.at_level(logging.WARNING):
            fv = extract_features(series, mask)
        for name in ("F2", "F4", "F5", "F8", "F9", "F14", "F15"):
            assert fv.values[name] is None, name
        for name in ("F1", "F3", "F6", "F7", "F10", "F11", "F12", "F13"):
            assert fv.values[name] is not None, name
        assert "tumor" in caplog.text

    def test_single_post_blanks_enhancement_ratio_features(self, rng):
        series, mask = random_scene(rng, n_posts=1)
        fv = extract_features(series, mask)
        assert fv.values["F1"] is None
        assert fv.values["F2"] is None
        assert fv.values["F6"] is None
        assert fv.values["F3"] is not None

    def test_single_voxel_tumor_blanks_major_axis(self, rng):
        series, mask = random_scene(rng)
        labels = np.array(mask.labels)
        tumor_idx = np.argwhere(labels == 5)
        labels[tuple(tumor_idx[0])] = 3
        fv = extract_features(series, mask_of(labels, series.spacing_mm))
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
        fv = extract_features(patched, mask)
        assert fv.values["F10"] == 77.0
        assert fv.values["F11"] == 0.0

    def test_mask_dims_mismatch_rejected(self, rng):
        series, _ = random_scene(rng)
        small = mask_of(labeled_scene((4, 6, 8))[:, :, :6])
        with pytest.raises(ValidationError, match="dims"):
            extract_features(series, small)

    def test_denoise_equals_prefiltered_series(self, rng):
        series, mask = random_scene(rng)
        denoised = extract_features(series, mask, denoise_radius=1)
        filtered = series_of(
            median_filter(series.pre, 1).data,
            [median_filter(p, 1).data for p in series.posts],
            spacing=series.spacing_mm,
        )
        plain = extract_features(filtered, mask)
        assert denoised.values == plain.values
        assert denoised.denoised
        assert not plain.denoised

    def test_denoising_leaves_major_axis_alone(self, rng):
        series, mask = random_scene(rng)
        a = extract_features(series, mask)
        b = extract_features(series, mask, denoise_radius=1)
        assert a.values["F9"] == b.values["F9"]

    def test_major_axis_ignores_intensities(self, rng):
        series, mask = random_scene(rng)
        mapping = build_mapping(
            anchor_set("s", 0, 50, 120, 300),
            NormalizationModel(10, 80, 200, 500, "arch", 1, "now"),
        )
        mapped = apply_mapping(mapping, series)
        a = extract_features(series, mask)
        b = extract_features(mapped, mask, normalized=True)
        assert a.values["F9"] == b.values["F9"]
        assert b.normalized

    def test_common_scale_invariance(self, rng):
        series, mask = random_scene(rng)
        scaled = series_of(
            series.pre.data * 4.0,
            [p.data * 4.0 for p in series.posts],
            spacing=series.spacing_mm,
        )
        a = extract_features(series, mask)
        b = extract_features(scaled, mask)
        for name in ("F1", "F2", "F3", "F4", "F5", "F6", "F9"):
            assert b.values[name] == a.values[name], name
        for name in ("F7", "F8"):
            assert b.values[name] == pytest.approx(a.values[name], abs=1e-9), name
        for name in ("F10", "F11", "F12", "F13", "F14", "F15"):
            assert b.values[name] == 4.0 * a.values[name], name

    def test_spreads_non_negative_entropies_bounded(self, rng):
        series, mask = random_scene(rng)
        fv = extract_features(series, mask)
        for name in ("F6", "F11", "F13", "F15"):
            assert fv.values[name] >= 0.0
        assert 0.0 <= fv.values["F7"] <= 6.0
        assert 0.0 <= fv.values["F8"] <= math.log2(9)


class TestFeatureCsv:
    def _rows(self, rng):
        series, mask = random_scene(rng)
        full = extract_features(series, mask)
        series2, mask2 = random_scene(rng, tumor=False)
        partial = extract_features(
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
        assert back == rows

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
