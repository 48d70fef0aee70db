"""End-to-end acceptance checks for the normalization pipeline.

Each test covers one acceptance criterion and reports a single
``acceptance: <name>: PASS`` or ``FAIL`` line through the terminal
reporter so the verdicts stay visible under pytest's output capture.
"""

import dataclasses
import math
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from dcenorm import (
    GroupSpec,
    GroupingSpec,
    SegmentationConfig,
    Volume,
    apply_mapping,
    build_mapping,
    classical_mask,
    evaluate,
    extract_anchors,
    extract_features,
    generate_phantom,
    group_subjects,
    ks_statistic,
    load_mask,
    load_series,
    median_filter,
    percentile,
    rank_subjects,
    roc_auc,
    train_archetype,
)
from dcenorm.anchors import AnchorSet
from dcenorm.model import NormalizationModel
from dcenorm.phantom import PhantomConfig

TISSUES = ("air", "fat", "dense", "heart")


@pytest.fixture
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(line):
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    return emit


@contextmanager
def gate(announce, name):
    try:
        yield
    except BaseException:
        announce(f"acceptance: {name}: FAIL")
        raise
    announce(f"acceptance: {name}: PASS")


def run_pipeline(cfg, out_dir, train_count=30):
    """Generate a cohort, train on a prefix, normalize everyone."""
    manifest = generate_phantom(cfg, out_dir, jobs=4)
    series = {e.subject_id: load_series(e) for e in manifest}
    masks = {e.subject_id: load_mask(e.mask) for e in manifest}
    anchors = {sid: extract_anchors(series[sid], masks[sid]) for sid in series}
    train_ids = [e.subject_id for e in manifest[:train_count]]
    model = train_archetype([anchors[sid] for sid in train_ids])
    normed = {
        sid: apply_mapping(build_mapping(anchors[sid], model), series[sid]) for sid in series
    }
    groups = group_subjects(manifest, GroupingSpec(key="te"))
    return SimpleNamespace(
        manifest=manifest,
        series=series,
        masks=masks,
        anchors=anchors,
        train_ids=train_ids,
        model=model,
        normed=normed,
        low_ids=groups["low"],
        high_ids=groups["high"],
    )


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Default two-group cohort with the whole pipeline timed end to end."""
    out = tmp_path_factory.mktemp("acceptance-main")
    t0 = time.perf_counter()
    state = run_pipeline(PhantomConfig(), out)
    state.before = {
        sid: extract_features(state.series[sid], state.masks[sid]) for sid in state.series
    }
    state.after = {
        sid: extract_features(state.normed[sid], state.masks[sid], normalized=True)
        for sid in state.series
    }
    state.elapsed = time.perf_counter() - t0
    return state


@pytest.fixture(scope="module")
def noisy_cohort(tmp_path_factory):
    """Same cohort except the second group runs at five times the noise."""
    base = PhantomConfig()
    groups = list(base.groups)
    groups[1] = dataclasses.replace(groups[1], noise_sigma=groups[1].noise_sigma * 5.0)
    cfg = dataclasses.replace(base, groups=tuple(groups))
    return run_pipeline(cfg, tmp_path_factory.mktemp("acceptance-noisy"))


def feature_ks(feats, low_ids, high_ids, name):
    lo = np.array([feats[sid].values[name] for sid in low_ids])
    hi = np.array([feats[sid].values[name] for sid in high_ids])
    return ks_statistic(lo, hi)


def test_normalized_anchors_reach_model_targets(cohort, announce):
    with gate(announce, "anchor-fixed-point"):
        targets = cohort.model.values()
        worst = 0.0
        for sid in cohort.series:
            redone = extract_anchors(cohort.normed[sid], cohort.masks[sid]).values()
            for tissue in TISSUES:
                err = abs(redone[tissue] - targets[tissue]) / max(abs(targets[tissue]), 1e-12)
                worst = max(worst, err)
        assert worst <= 1e-4
        assert cohort.elapsed < 60.0


def test_intergroup_intensity_ratio_collapses(cohort, announce):
    with gate(announce, "intergroup-intensity-ratio"):
        def ratio(volumes, label):
            def group_mean(ids):
                per_subject = [
                    float(volumes[sid].posts[0].data[cohort.masks[sid].labels == label].mean())
                    for sid in ids
                ]
                return np.mean(per_subject)

            return group_mean(cohort.high_ids) / group_mean(cohort.low_ids)

        for label in (2, 3):  # fat, dense
            assert ratio(cohort.series, label) >= 1.4
            assert 0.98 <= ratio(cohort.normed, label) <= 1.02


def test_intensity_feature_distributions_align(cohort, announce):
    with gate(announce, "feature-ks-alignment"):
        for name in ("F10", "F11", "F12", "F13", "F14", "F15"):
            before = feature_ks(cohort.before, cohort.low_ids, cohort.high_ids, name)
            after = feature_ks(cohort.after, cohort.low_ids, cohort.high_ids, name)
            assert after < before, name
            assert after < 0.15, name
        for sid in cohort.series:
            assert cohort.before[sid].values["F9"] == cohort.after[sid].values["F9"]


def test_denoising_restores_texture_alignment(noisy_cohort, announce):
    with gate(announce, "noise-vs-denoise"):
        def f6_ks(radius):
            feats = {
                sid: extract_features(
                    noisy_cohort.normed[sid],
                    noisy_cohort.masks[sid],
                    denoise_radius=radius,
                    normalized=True,
                )
                for sid in noisy_cohort.series
            }
            return feature_ks(feats, noisy_cohort.low_ids, noisy_cohort.high_ids, "F6")

        assert f6_ks(None) >= 0.15
        assert f6_ks(1) < 0.15


def test_mapping_function_properties_hold_at_scale(announce):
    with gate(announce, "mapping-properties"):
        rng = np.random.default_rng(20240818)
        n = 100_000
        vs = np.sort(rng.uniform(-500.0, 2000.0, (n, 4)), axis=1)
        vs += np.arange(4) * 1e-3
        ms = np.sort(rng.uniform(0.0, 1500.0, (n, 4)), axis=1)
        flat = rng.random((n, 3)) < 0.15
        for j in range(3):  # collapse some target segments to exercise flat runs
            ms[flat[:, j], j + 1] = ms[flat[:, j], j]
        ms = np.sort(ms, axis=1)
        interior = rng.random((n, 6))
        deltas = rng.uniform(1e-3, 500.0, n)
        counts = {t: 1 for t in TISSUES}

        for i in range(n):
            v, m = vs[i], ms[i]
            anchor = AnchorSet("s", v[0], v[1], v[2], v[3], counts)
            model = NormalizationModel(m[0], m[1], m[2], m[3], "s", 1, "t")
            f = build_mapping(anchor, model)
            assert f.upper_slope == (m[3] - m[2]) / (v[3] - v[2])

            lo, hi = v[0] - 200.0, v[3] + 200.0
            left = np.nextafter(v, -np.inf)
            right = np.nextafter(v, np.inf)
            xs = np.concatenate([
                v, left, right, lo + interior[i] * (hi - lo), [v[3] + deltas[i]],
            ])
            ys = evaluate(f, xs)
            assert np.array_equal(ys[0:4], m)
            # one ulp of x legitimately moves the value by slope * step;
            # anything beyond that would be a jump at the knot
            seg_slopes = np.diff(m) / np.diff(v)
            left_slope = np.concatenate([[abs(f.lower_slope)], seg_slopes])
            right_slope = np.concatenate([seg_slopes, [abs(f.upper_slope)]])
            assert np.all(np.abs(ys[4:8] - m) <= left_slope * (v - left) + 1e-9)
            assert np.all(np.abs(ys[8:12] - m) <= right_slope * (right - v) + 1e-9)
            assert ys[18] == m[3] + f.upper_slope * (xs[18] - v[3])
            order = np.argsort(xs)
            assert np.all(np.diff(ys[order]) >= 0.0)


def brute_percentile(values, q):
    ordered = sorted(values)
    idx = max(math.ceil(q * len(ordered) / 100.0) - 1, 0)
    return ordered[idx]


def brute_median_filter(data, radius):
    out = np.empty_like(data)
    nz, ny, nx = data.shape
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                window = data[
                    max(z - radius, 0):z + radius + 1,
                    max(y - radius, 0):y + radius + 1,
                    max(x - radius, 0):x + radius + 1,
                ]
                ordered = np.sort(window.ravel())
                out[z, y, x] = ordered[(ordered.size + 1) // 2 - 1]
    return out


def brute_ranks(values):
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(less + (equal + 1) / 2.0)
    return np.array(ranks)


def brute_archetype(anchor_sets):
    n = len(anchor_sets)
    scores = {}
    for a in anchor_sets:
        per_tissue = []
        for tissue in TISSUES:
            values = [b.values()[tissue] for b in anchor_sets]
            per_tissue.append(brute_ranks(values)[[b.subject_id for b in anchor_sets].index(a.subject_id)])
        scores[a.subject_id] = sum(per_tissue) / 4.0
    target = (n + 1) / 2.0
    best = min(scores, key=lambda sid: (abs(scores[sid] - target), sid))
    return best


def brute_ks(a, b):
    best = 0.0
    for t in list(a) + list(b):
        fa = sum(1 for x in a if x <= t) / len(a)
        fb = sum(1 for x in b if x <= t) / len(b)
        best = max(best, abs(fa - fb))
    return best


def brute_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def random_anchor_sets(rng, n):
    sets = []
    for i in range(n):
        base = np.sort(rng.choice(np.arange(0.0, 400.0, 0.5), 4, replace=False))
        sets.append(
            AnchorSet(f"s{i:02d}", base[0], base[1], base[2], base[3], {t: 1 for t in TISSUES})
        )
    return sets


def test_estimators_match_brute_force_oracles(announce):
    with gate(announce, "estimator-oracles"):
        rng = np.random.default_rng(20240819)

        for _ in range(120):
            values = rng.choice(np.arange(-40.0, 40.0, 0.25), rng.integers(1, 60))
            q = float(rng.uniform(0.0, 100.0))
            assert percentile(values, q) == brute_percentile(values, q)

        for trial in range(100):
            shape = tuple(rng.integers(2, 6, 3))
            data = rng.normal(0.0, 10.0, shape).astype(np.float32)
            radius = 1 if trial % 3 else 2
            filtered = median_filter(Volume(data, (1.0, 1.0, 1.0), "dce-pre"), radius)
            assert np.array_equal(filtered.data, brute_median_filter(data, radius))

        for _ in range(120):
            n = int(rng.integers(1, 15))
            sets = random_anchor_sets(rng, n)
            for tissue in TISSUES:
                values = [a.values()[tissue] for a in sets]
                assert np.array_equal(rank_subjects(sets, tissue), brute_ranks(values))

        for _ in range(120):
            sets = random_anchor_sets(rng, int(rng.integers(1, 13)))
            model = train_archetype(sets)
            assert model.archetype_subject_id == brute_archetype(sets)

        for _ in range(120):
            a = rng.choice(np.arange(0.0, 30.0), rng.integers(1, 30))
            b = rng.choice(np.arange(0.0, 30.0), rng.integers(1, 30))
            assert ks_statistic(a, b) == brute_ks(a, b)

        for _ in range(120):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice(np.arange(0.0, 10.0, 0.5), n)
            assert abs(roc_auc(scores, labels) - brute_auc(scores, labels)) <= 1e-12


def consistent_trio(rng):
    ids = ["s0", "s1", "s2"]
    order = rng.permutation(3)
    columns = {}
    for tissue in TISSUES:
        lo = float(rng.uniform(0.0, 300.0))
        vals = lo + np.cumsum(rng.uniform(1.0, 50.0, 3))
        columns[tissue] = vals
    sets = []
    for position, subject in enumerate(order):
        sets.append(AnchorSet(
            ids[subject],
            columns["air"][position],
            columns["fat"][position],
            columns["dense"][position],
            columns["heart"][position],
            {t: 1 for t in TISSUES},
        ))
    middle = ids[order[1]]
    return sets, middle


def test_consistent_ordering_selects_middle_subject(announce):
    with gate(announce, "archetype-median-selection"):
        sets = [
            AnchorSet("lo", 0.0, 10.0, 20.0, 30.0, {t: 1 for t in TISSUES}),
            AnchorSet("mid", 2.0, 14.0, 30.0, 44.0, {t: 1 for t in TISSUES}),
            AnchorSet("hi", 5.0, 20.0, 40.0, 60.0, {t: 1 for t in TISSUES}),
        ]
        model = train_archetype(sets)
        assert model.archetype_subject_id == "mid"
        assert model.values() == sets[1].values()

        rng = np.random.default_rng(20240820)
        for _ in range(40):
            trio, middle = consistent_trio(rng)
            model = train_archetype(trio)
            assert model.archetype_subject_id == middle
            chosen = next(a for a in trio if a.subject_id == middle)
            assert model.values() == chosen.values()


def test_runtime_budget_on_clinical_grid(tmp_path, announce):
    with gate(announce, "runtime-budget"):
        cfg = PhantomConfig(dims=(256, 256, 60), groups=(GroupSpec(name="A", n_subjects=1),))
        manifest = generate_phantom(cfg, tmp_path, jobs=1)
        series = load_series(manifest[0])

        t0 = time.perf_counter()
        mask = classical_mask(series, SegmentationConfig())
        anchors = extract_anchors(series, mask)
        model = train_archetype([anchors])
        mapping = build_mapping(anchors, model)
        apply_mapping(mapping, series)
        subject_elapsed = time.perf_counter() - t0
        assert subject_elapsed < 10.0

        t1 = time.perf_counter()
        evaluate(mapping, series.pre.data)
        mapping_elapsed = time.perf_counter() - t1
        assert mapping_elapsed < 2.0
