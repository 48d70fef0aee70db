import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dcenorm import (
    MappingFunction,
    NonFiniteDataError,
    SubjectError,
    ValidationError,
    build_mapping,
    evaluate,
    export_mapping_curve,
    extract_anchors,
    load_mask,
    load_series,
    median_filter,
    train_archetype,
)
from dcenorm import mapping as mapping_mod
from dcenorm.mapping import write_mapping_curve
from dcenorm.model import NormalizationModel

from helpers import anchor_set, map_series, series_of


def model_of(air, fat, dense, heart):
    return NormalizationModel(air, fat, dense, heart, "arch", 1, "now")


def mapping_of(v, m):
    return build_mapping(anchor_set("s", *v), model_of(*m))


def scalar_oracle(knots_v, knots_m, upper, lower, x):
    """Naive per-point evaluation with plain slope interpolation."""
    v0, v1, v2, v3 = knots_v
    m0, m1, m2, m3 = knots_m
    if x >= v3:
        return m3 + upper * (x - v3)
    if x < v0:
        return max(min(0.0, m0), m0 + lower * (x - v0))
    for a, b, ma, mb in ((v0, v1, m0, m1), (v1, v2, m1, m2), (v2, v3, m2, m3)):
        if a <= x < b:
            return ma + (x - a) * (mb - ma) / (b - a)
    raise AssertionError("unreachable")


def random_mapping(rng, allow_flat_targets=True):
    v = np.sort(rng.uniform(0, 500, size=4))
    while np.any(np.diff(v) < 1e-3):
        v = np.sort(rng.uniform(0, 500, size=4))
    m = np.sort(rng.uniform(0, 500, size=4))
    if allow_flat_targets and rng.random() < 0.2:
        m[2] = m[1]
    return mapping_of(tuple(v), tuple(np.sort(m)))


def three_branch_evaluate(mapping, x):
    """The per-piece masked evaluation that the piece table replaced, kept
    as the reference the table must match bit for bit."""
    v = np.asarray(mapping.knots_v, dtype=np.float64)
    m = np.asarray(mapping.knots_m, dtype=np.float64)
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)

    idx = np.searchsorted(v, xs, side="right") - 1
    out = np.empty(xs.shape, dtype=np.float64)

    below = idx < 0
    above = idx >= 3
    mid = ~(below | above)

    if mid.any():
        i = idx[mid]
        t = (xs[mid] - v[i]) / (v[i + 1] - v[i])
        out[mid] = np.minimum(m[i] + t * (m[i + 1] - m[i]), m[i + 1])
    if above.any():
        out[above] = m[3] + mapping.upper_slope * (xs[above] - v[3])
    if below.any():
        lowered = m[0] + mapping.lower_slope * (xs[below] - v[0])
        out[below] = np.maximum(min(0.0, m[0]), lowered)

    if scalar:
        return float(out[0])
    return out


finite = st.floats(-1e6, 1e6)


@st.composite
def built_mappings(draw):
    """Maps from build_mapping with flat target runs, and targets of either sign."""
    v = draw(st.lists(finite, min_size=4, max_size=4, unique=True))
    m = sorted(draw(st.lists(finite, min_size=4, max_size=4)))
    for j, flat in enumerate(draw(st.lists(st.booleans(), min_size=3, max_size=3))):
        if flat:
            m[j + 1] = m[j]
    order = np.argsort(v)
    targets = [0.0] * 4
    for rank, tissue in enumerate(order):
        targets[tissue] = m[rank]
    return mapping_of(tuple(v), tuple(targets))


class TestBuildMapping:
    def test_identity_when_anchors_match_targets(self):
        f = mapping_of((0, 10, 50, 100), (0, 10, 50, 100))
        assert f.upper_slope == 1.0
        assert f.lower_slope == 1.0
        xs = np.array([0.0, 5.0, 10.0, 42.0, 100.0, 170.0])
        assert evaluate(f, xs) == pytest.approx(xs, abs=1e-12)

    def test_worked_example(self):
        f = mapping_of((0, 10, 50, 100), (0, 20, 60, 120))
        assert f.upper_slope == 1.2
        assert evaluate(f, 5.0) == 10.0
        assert evaluate(f, 150.0) == 180.0

    def test_control_points_sorted_by_anchor_value(self):
        # air anchored brighter than fat; sorting is by value, and the
        # extrapolation slopes stay tied to their tissues
        f = mapping_of((30, 10, 40, 100), (3, 1, 4, 10))
        assert f.knots_v == (10.0, 30.0, 40.0, 100.0)
        assert f.knots_m == (1.0, 3.0, 4.0, 10.0)
        assert f.upper_slope == (10 - 4) / (100 - 40)
        assert f.lower_slope == (1 - 3) / (10 - 30)
        assert evaluate(f, 30.0) == 3.0

    def test_equal_anchors_rejected_naming_tissues(self):
        with pytest.raises(SubjectError, match="share anchor value") as err:
            mapping_of((0, 25, 25, 100), (0, 10, 20, 30))
        assert "fat" in str(err.value)
        assert "dense" in str(err.value)

    def test_decreasing_targets_rejected(self):
        with pytest.raises(SubjectError, match="heart"):
            mapping_of((0, 10, 50, 100), (0, 20, 60, 55))

    def test_upper_slope_is_heart_dense_secant(self, rng):
        for _ in range(50):
            v = np.sort(rng.uniform(0, 300, size=4))
            if np.any(np.diff(v) == 0):
                continue
            m = np.sort(rng.uniform(0, 300, size=4))
            f = mapping_of(tuple(v), tuple(m))
            assert f.upper_slope == (m[3] - m[2]) / (v[3] - v[2])


class TestMappingFunction:
    def test_rejects_non_increasing_knots(self):
        with pytest.raises(SubjectError, match="strictly increase"):
            MappingFunction((0, 10, 10, 20), (0, 1, 2, 3), 1.0, 1.0)

    def test_rejects_decreasing_targets(self):
        with pytest.raises(SubjectError, match="non-decreasing"):
            MappingFunction((0, 10, 20, 30), (0, 2, 1, 3), 1.0, 1.0)

    def test_flat_targets_allowed(self):
        f = MappingFunction((0, 10, 20, 30), (5, 5, 5, 5), 0.0, 0.0)
        assert evaluate(f, 15.0) == 5.0

    @pytest.mark.parametrize("slopes", [(-1.0, 1.0), (1.0, -1e-300), (np.nan, 1.0), (1.0, np.nan)])
    def test_rejects_negative_or_nan_slopes(self, slopes):
        with pytest.raises(SubjectError, match="slope"):
            MappingFunction((0, 10, 20, 30), (0, 1, 2, 3), *slopes)

    @pytest.mark.parametrize("at", range(4))
    def test_rejects_nan_knot(self, at):
        knots = [0.0, 10.0, 20.0, 30.0]
        knots[at] = np.nan
        with pytest.raises(SubjectError, match="strictly increase"):
            MappingFunction(tuple(knots), (0, 1, 2, 3), 1.0, 1.0)

    @pytest.mark.parametrize("at", range(4))
    def test_rejects_nan_target(self, at):
        targets = [0.0, 1.0, 2.0, 3.0]
        targets[at] = np.nan
        with pytest.raises(SubjectError, match="non-decreasing"):
            MappingFunction((0, 10, 20, 30), tuple(targets), 1.0, 1.0)

    @pytest.mark.parametrize("knots_v, knots_m", [((0, 10, 20), (0, 1, 2, 3)), ((0, 10, 20, 30), (0, 1, 2))])
    def test_rejects_three_control_points(self, knots_v, knots_m):
        with pytest.raises(ValidationError, match="exactly 4"):
            MappingFunction(knots_v, knots_m, 1.0, 1.0)


class TestEvaluate:
    def test_knots_reproduce_targets_exactly(self, rng):
        for _ in range(100):
            f = random_mapping(rng)
            got = evaluate(f, np.array(f.knots_v))
            assert np.array_equal(got, np.array(f.knots_m))

    def test_matches_scalar_oracle(self, rng):
        f = mapping_of((3, 41, 97, 250), (10, 30, 120, 260))
        xs = rng.uniform(-100, 400, size=10_000)
        got = evaluate(f, xs)
        for x, y in zip(xs, got):
            expected = scalar_oracle(
                f.knots_v, f.knots_m, f.upper_slope, f.lower_slope, x
            )
            assert abs(y - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_monotone_non_decreasing(self, rng):
        for _ in range(50):
            f = random_mapping(rng)
            xs = np.sort(rng.uniform(f.knots_v[0] - 200, f.knots_v[3] + 200, size=64))
            ys = evaluate(f, xs)
            assert np.all(np.diff(ys) >= 0)

    def test_continuous_at_knots(self, rng):
        for _ in range(50):
            f = random_mapping(rng)
            for v in f.knots_v:
                left = evaluate(f, np.nextafter(v, -np.inf))
                right = evaluate(f, np.nextafter(v, np.inf))
                at = evaluate(f, v)
                assert abs(left - at) <= 1e-9 * max(1.0, abs(at))
                assert abs(right - at) <= 1e-9 * max(1.0, abs(at))

    def test_upper_extrapolation_slope_exact(self):
        f = mapping_of((0, 10, 50, 100), (0, 20, 60, 120))
        for delta in (2.0, 64.0, 1024.0):
            assert evaluate(f, 100.0 + delta) == 120.0 + f.upper_slope * delta

    def test_lower_extrapolation_clamped(self):
        f = mapping_of((100, 110, 150, 200), (10, 30, 60, 90))
        # lower slope 2: drops below the floor quickly
        assert evaluate(f, 99.0) == 8.0
        assert evaluate(f, 0.0) == 0.0

    def test_floor_never_rises_above_first_target(self):
        """A negative air target floors the lower tail at that target, not at 0."""
        f = mapping_of((100, 110, 150, 200), (-10, 30, 60, 90))
        assert evaluate(f, 100.5) == -8.0
        assert evaluate(f, 99.0) == -10.0
        assert evaluate(f, 0.0) == -10.0
        xs = np.linspace(-50, 250, 301)
        assert np.all(np.diff(evaluate(f, xs)) >= 0)

    def test_scalar_and_array_agree(self, rng):
        f = random_mapping(rng)
        xs = rng.uniform(-50, 550, size=20)
        ys = evaluate(f, xs)
        for x, y in zip(xs, ys):
            assert evaluate(f, float(x)) == y

    @given(built_mappings(), st.lists(st.floats(0.0, 1.0), max_size=8), finite)
    # signed zeros: a global floor or a finite cap on a tail would flip these
    @example(mapping_of((0.0, 1.0, 2.0, 3.0), (0.0, 0.0, 0.0, -0.0)), [0.5], 0.0)
    @example(mapping_of((1.0, 0.0, 2.0, 3.0), (-0.0, -0.0, 1.0, 2.0)), [0.5], 0.0)
    def test_piece_table_matches_three_branch_evaluate(self, f, fractions, far):
        v = np.array(f.knots_v)
        span = v[3] - v[0]
        xs = np.concatenate([
            v,
            np.nextafter(v, -np.inf),
            np.nextafter(v, np.inf),
            v[0] + np.array(fractions) * span,
            [v[0] - abs(far) - 1e12, v[3] + abs(far) + 1e12, v[0] - abs(far), v[3] + abs(far)],
            [-np.inf, np.inf, np.nan, 0.0, -0.0],
        ])
        with np.errstate(invalid="ignore"):  # a flat tail times an infinity is NaN in both
            pairs = [(evaluate(f, p), three_branch_evaluate(f, p)) for p in (xs, xs.astype(np.float32))]
            pairs.append(tuple(np.array([fn(f, x) for x in xs]) for fn in (evaluate, three_branch_evaluate)))
        for got, want in pairs:
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))  # == does not tell -0.0 from 0.0


class TestMapVolume:
    """``map_volume`` over each volume of a series, through the test-side ``map_series``."""

    def test_identity_mapping_preserves_voxels(self, rng):
        data = rng.uniform(0, 200, size=(3, 4, 5)).astype(np.float32)
        series = series_of(data, [data * 2], subject_id="s7")
        f = mapping_of((0, 10, 50, 100), (0, 10, 50, 100))
        mapped = map_series(f, series)
        assert np.array_equal(mapped.pre.data, data)
        assert mapped.subject_id == "s7"
        assert mapped.pre.data.dtype == np.float32

    def test_preserves_voxel_order(self, rng):
        data = rng.uniform(-50, 400, size=(4, 5, 6)).astype(np.float32)
        series = series_of(data, [data + 1])
        f = random_mapping(rng)
        mapped = map_series(f, series)
        order = np.argsort(data.ravel(), kind="stable")
        assert np.all(np.diff(mapped.pre.data.ravel()[order]) >= 0)

    def test_same_function_applied_to_every_volume(self, rng):
        pre = rng.uniform(0, 100, size=(2, 3, 4)).astype(np.float32)
        series = series_of(pre, [pre, pre.copy()])
        f = random_mapping(rng)
        mapped = map_series(f, series)
        assert np.array_equal(mapped.posts[0].data, mapped.pre.data)
        assert np.array_equal(mapped.posts[1].data, mapped.pre.data)

    def test_maps_into_a_given_buffer_as_into_one_of_their_own(self, rng):
        """Volume after volume mapped into one map_buffer: each result views the buffer and equals a map of its own."""
        f = random_mapping(rng)
        volumes = series_of(rng.uniform(-50, 400, size=(3, 4, 5)).astype(np.float32), [np.ones((3, 4, 5))]).volumes
        out = mapping_mod.map_buffer(60)
        for volume in volumes:
            alone = mapping_mod.map_volume(f, volume, "s")
            got = mapping_mod.map_volume(f, volume, "s", out)
            assert np.shares_memory(got.data, np.frombuffer(out, dtype=np.float32))
            assert np.array_equal(got.data.view(np.uint32), alone.data.view(np.uint32))

    @given(built_mappings(), st.integers(0, 2**32 - 1))
    def test_blocks_join_bit_for_bit(self, f, seed):
        """map_volume evaluates in blocks; its store equals one whole-volume evaluate cast to float32."""
        rng = np.random.default_rng(seed)
        v = np.array(f.knots_v)
        span = v[3] - v[0]
        block = mapping_mod._BLOCK_VOXELS
        for n in (1, block - 1, block, block + 1, 3 * block + 123):
            data = rng.uniform(v[0] - span, v[3] + span, size=(n, 1, 1)).astype(np.float32)
            series = series_of(data, [data[::-1].copy()], subject_id="s")
            with np.errstate(over="ignore", invalid="ignore"):
                want = [evaluate(f, vol.data).astype(np.float32) for vol in (series.pre, *series.posts)]
            if not all(np.isfinite(w).all() for w in want):  # a steep tail can pass float32's range
                with pytest.raises(NonFiniteDataError, match="subject s: mapped volume"):
                    map_series(f, series)
                continue
            mapped = map_series(f, series)
            for got, w in zip((mapped.pre, *mapped.posts), want):
                assert got.data.shape == w.shape
                assert np.array_equal(got.data.view(np.uint32), w.view(np.uint32))

    @given(built_mappings(), st.integers(0, 2**32 - 1))
    # a map flat at 0.0 below the top knot and at -0.0 above it: the max ties 0.0 with -0.0
    @example(mapping_of((-1.0, 0.0, 1.0, 2.0), (0.0, 0.0, 0.0, -0.0)), 0)
    def test_range_is_the_map_of_the_raw_range(self, f, seed):
        """evaluate and the float32 store are weakly monotone, so a mapped volume's max and min are the
        map of the raw max and min, bit for bit: eps of a mapped series needs no mapped voxel.

        Only the sign of a zero is left open, since a max or min may return either of 0.0 and -0.0
        when both occur; eps reads max - min, and a zero's sign changes neither it nor the guards.
        """
        rng = np.random.default_rng(seed)
        v = np.array(f.knots_v)
        span = v[3] - v[0]
        # Below the first knot, where the floor clamps, through beyond the top knot.
        pre = rng.uniform(v[0] - 4 * span - 1e3, v[3] + span, size=(3, 4, 5)).astype(np.float32)
        series = series_of(pre, [rng.permutation(pre.ravel()).reshape(pre.shape) + np.float32(span)])
        with np.errstate(over="ignore", invalid="ignore"):
            want = [evaluate(f, vol.data).astype(np.float32) for vol in series.volumes]
        if not all(np.isfinite(w).all() for w in want):  # a steep tail can pass float32's range
            return
        for raw, got in zip(series.volumes, map_series(f, series).volumes):
            for reduce in (np.max, np.min):
                want = np.float32(evaluate(f, float(reduce(raw.data))))
                assert (reduce(got.data) + np.float32(0)).tobytes() == (want + np.float32(0)).tobytes()


class TestCurveExport:
    def test_identity_samples(self):
        f = mapping_of((0, 0.5, 1.5, 2), (0, 0.5, 1.5, 2))
        curve = export_mapping_curve(f)
        xs = curve[:, 0]
        assert np.all(np.diff(xs) >= 0)
        samples = curve[curve[:, 2] == 0]
        assert len(samples) == 256
        # The identity below 0 clamps at the floor of 0.
        assert np.all(samples[samples[:, 0] < 0, 1] == 0)
        above = samples[samples[:, 0] >= 0]
        assert np.allclose(above[:, 1], above[:, 0], rtol=0, atol=1e-12)
        anchors = curve[curve[:, 2] == 1]
        assert list(anchors[:, 0]) == [0, 0.5, 1.5, 2]
        assert np.array_equal(anchors[:, 0], anchors[:, 1])

    def test_default_range_covers_extrapolation(self):
        f = mapping_of((100, 120, 180, 200), (0, 10, 20, 30))
        curve = export_mapping_curve(f)
        span = 100.0
        assert curve[0, 0] == 100 - 0.05 * span
        assert curve[-1, 0] == 200 + 0.25 * span

    def test_random_curves_monotone(self, rng):
        for _ in range(25):
            f = random_mapping(rng)
            curve = export_mapping_curve(f)
            assert curve.shape == (260, 3)
            assert np.all(np.diff(curve[:, 0]) >= 0)
            assert np.all(np.diff(curve[:, 1]) >= -1e-12)
            assert np.count_nonzero(curve[:, 2]) == 4

    def test_csv_round_trip_exact(self, tmp_path, rng):
        f = random_mapping(rng)
        curve = export_mapping_curve(f)
        path = tmp_path / "curve.csv"
        write_mapping_curve(path, curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,fx,is_anchor"
        parsed = np.array(
            [[float(a), float(b), float(c)] for a, b, c in (l.split(",") for l in lines[1:])]
        )
        assert np.array_equal(parsed, curve)


class TestRankPreservation:
    def test_median_filter_commutes_with_mapping(self, phantom_dataset):
        """The map is monotone and the filter selects a window element, so
        filtering after mapping equals mapping after filtering, bit for bit.
        Denoised features before and after normalization stay comparable."""
        _, manifest = phantom_dataset
        cohort = [(load_series(e), load_mask(e.mask)) for e in manifest[:6]]
        anchors = [extract_anchors(series, mask) for series, mask in cohort]
        model = train_archetype(anchors)
        for (series, _), anchor in zip(cohort, anchors):
            mapping = build_mapping(anchor, model)
            filtered = dataclasses.replace(
                series,
                pre=median_filter(series.pre, 1),
                posts=tuple(median_filter(p, 1) for p in series.posts),
            )
            mapped = map_series(mapping, series)
            mapped_filtered = map_series(mapping, filtered)
            pairs = zip((mapped.pre,) + mapped.posts, (mapped_filtered.pre,) + mapped_filtered.posts)
            for after_map, after_filter in pairs:
                assert np.array_equal(median_filter(after_map, 1).data, after_filter.data)
