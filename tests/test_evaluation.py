import json
from pathlib import Path

import numpy as np
import pytest

from dcenorm import (
    FeatureVector,
    GroupingSpec,
    SubjectEntry,
    ValidationError,
    build_report,
    group_subjects,
    ks_statistic,
    roc_auc,
)
from dcenorm.evaluation import write_report_csv
from dcenorm.features import FEATURE_NAMES


def entry(sid, te=1.8, tr=4.0, field=1.5, label=None):
    return SubjectEntry(
        subject_id=sid,
        pre=Path(f"{sid}_pre"),
        posts=(Path(f"{sid}_post1"),),
        te_ms=te,
        tr_ms=tr,
        field_t=field,
        mask=None,
        label=label,
    )


def feature_row(sid, value=1.0, **overrides):
    values = {name: float(value) for name in FEATURE_NAMES}
    values.update(overrides)
    return FeatureVector(subject_id=sid, values=values)


class TestGrouping:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="grouping key"):
            GroupingSpec("flip_angle")

    def test_default_thresholds(self):
        assert GroupingSpec("te").cut == 2.0
        assert GroupingSpec("tr").cut == 4.5
        assert GroupingSpec("field").cut == 3.0

    def test_threshold_override(self):
        assert GroupingSpec("te", threshold=1.0).cut == 1.0

    def test_split_around_default_te(self):
        manifest = tuple([entry("a", te=1.5), entry("b", te=2.5)])
        groups = group_subjects(manifest, GroupingSpec("te"))
        assert groups == {"low": ["a"], "high": ["b"]}

    def test_threshold_value_goes_high(self):
        manifest = tuple([entry("a", te=2.0)])
        groups = group_subjects(manifest, GroupingSpec("te"))
        assert groups == {"low": [], "high": ["a"]}

    def test_sixty_forty_split(self):
        entries = [entry(f"s{i:03d}", te=1.8 if i < 60 else 2.6) for i in range(100)]
        groups = group_subjects(tuple(entries), GroupingSpec("te"))
        assert len(groups["low"]) == 60
        assert len(groups["high"]) == 40

    def test_phantom_groups_split_by_te(self, phantom_dataset):
        _, manifest = phantom_dataset
        groups = group_subjects(manifest, GroupingSpec("te"))
        assert sorted(groups["low"]) == [f"A{i:03d}" for i in range(20)]
        assert sorted(groups["high"]) == [f"B{i:03d}" for i in range(20)]


def ks_oracle(a, b):
    best = 0.0
    for t in sorted(set(a) | set(b)):
        fa = sum(1 for v in a if v <= t) / len(a)
        fb = sum(1 for v in b if v <= t) / len(b)
        best = max(best, abs(fa - fb))
    return best


class TestKsStatistic:
    def test_identical_samples(self, rng):
        a = rng.normal(size=30)
        assert ks_statistic(a, a.copy()) == 0.0

    def test_disjoint_samples(self, rng):
        a = rng.uniform(0, 1, size=25)
        b = rng.uniform(10, 11, size=40)
        assert ks_statistic(a, b) == 1.0

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(120):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 30))
            a = rng.integers(0, 10, size=n).astype(float)
            b = rng.integers(0, 10, size=m).astype(float)
            assert ks_statistic(a, b) == ks_oracle(list(a), list(b))

    def test_symmetric(self, rng):
        a = rng.normal(size=17)
        b = rng.normal(1.0, 2.0, size=23)
        assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_invariant_under_monotone_transform(self, rng):
        a = rng.uniform(1, 2, size=19)
        b = rng.uniform(1.5, 3, size=11)
        plain = ks_statistic(a, b)
        assert ks_statistic(a**3, b**3) == plain
        assert ks_statistic(np.exp(a), np.exp(b)) == plain

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            ks_statistic([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ks_statistic([np.nan], [1.0])


def auc_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([1.0, 2.0, 10.0, 11.0])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 1.0

    def test_all_scores_equal(self):
        scores = np.full(6, 3.0)
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert roc_auc(scores, labels) == 0.5

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(120):
            n = int(rng.integers(2, 25))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 8, size=n).astype(float)
            got = roc_auc(scores, labels)
            assert got == pytest.approx(auc_oracle(list(scores), list(labels)), abs=1e-12)

    def test_label_flip_complements(self, rng):
        scores = rng.permutation(20).astype(float)  # no ties
        labels = np.array([0, 1] * 10)
        assert roc_auc(scores, 1 - labels) == pytest.approx(
            1.0 - roc_auc(scores, labels), abs=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="each class"):
            roc_auc([1.0, 2.0], [1, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc([1.0, 2.0], [1])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc([1.0, 2.0, 3.0], [0, 1, 2])


class TestBuildReport:
    def _inputs(self, values_by_sid=None, labels=(None, None, None, None)):
        entries = [
            entry("a", te=1.5, label=labels[0]),
            entry("b", te=1.6, label=labels[1]),
            entry("c", te=2.5, label=labels[2]),
            entry("d", te=2.6, label=labels[3]),
        ]
        manifest = tuple(entries)
        values_by_sid = values_by_sid or {}
        before = [feature_row(sid, values_by_sid.get(sid, 1.0)) for sid in "abcd"]
        after = [feature_row(sid, values_by_sid.get(sid, 1.0)) for sid in "abcd"]
        return manifest, before, after

    def test_identical_groups_have_zero_ks(self):
        manifest, before, after = self._inputs()
        report = build_report(manifest, before, after, GroupingSpec("te"))
        for row in report["features"]:
            assert row["before"]["ks"] == 0.0
            assert row["after"]["ks"] == 0.0
            assert row["ks_delta"] == 0.0

    def test_grouping_section_lists_members(self):
        manifest, before, after = self._inputs()
        report = build_report(manifest, before, after, GroupingSpec("te"))
        assert report["schema_version"] == 1
        assert report["grouping"]["low"] == ["a", "b"]
        assert report["grouping"]["high"] == ["c", "d"]
        assert report["grouping"]["threshold"] == 2.0

    def test_separated_groups_have_unit_ks(self):
        values = {"a": 0.0, "b": 0.1, "c": 5.0, "d": 5.1}
        manifest, before, after = self._inputs(values_by_sid=values)
        report = build_report(manifest, before, after, GroupingSpec("te"))
        assert report["features"][0]["before"]["ks"] == 1.0

    def test_coverage_mismatch_rejected(self):
        manifest, before, after = self._inputs()
        with pytest.raises(ValidationError, match="cover"):
            build_report(manifest, before, after[:-1], GroupingSpec("te"))

    def test_duplicate_feature_row_rejected(self):
        manifest, before, after = self._inputs()
        with pytest.raises(ValidationError, match="duplicate"):
            build_report(manifest, before + [before[0]], after, GroupingSpec("te"))

    def test_empty_group_rejected(self):
        entries = [entry("a", te=1.0), entry("b", te=1.1)]
        manifest = tuple(entries)
        rows = [feature_row("a"), feature_row("b")]
        with pytest.raises(ValidationError, match="empty"):
            build_report(manifest, rows, list(rows), GroupingSpec("te"))

    def test_feature_missing_everywhere_reports_nulls(self):
        manifest, _, _ = self._inputs()
        rows = [feature_row(sid, F2=None) for sid in "abcd"]
        report = build_report(manifest, rows, [feature_row(sid, F2=None) for sid in "abcd"], GroupingSpec("te"))
        f2 = next(r for r in report["features"] if r["feature"] == "F2")
        assert f2["before"]["low_n"] == 0
        assert f2["before"]["ks"] is None
        assert f2["ks_delta"] is None

    def test_auc_needs_complete_binary_labels(self):
        manifest, before, after = self._inputs(labels=(0, 1, 0, 1))
        report = build_report(manifest, before, after, GroupingSpec("te"))
        assert report["auc"] is not None
        assert len(report["auc"]) == 15
        assert report["auc"][0]["before"] == 0.5

        partial, b2, a2 = self._inputs(labels=(0, 1, 0, None))
        assert build_report(partial, b2, a2, GroupingSpec("te"))["auc"] is None

        single, b3, a3 = self._inputs(labels=(1, 1, 1, 1))
        assert build_report(single, b3, a3, GroupingSpec("te"))["auc"] is None

    def test_no_masks_drops_tissue_intensity(self):
        manifest, before, after = self._inputs()
        report = build_report(manifest, before, after, GroupingSpec("te"))
        assert report["tissue_intensity"] == {"before": None}

    def test_json_round_trip(self):
        manifest, before, after = self._inputs(labels=(0, 1, 0, 1))
        report = build_report(manifest, before, after, GroupingSpec("te"))
        assert json.loads(json.dumps(report)) == report

    def test_phantom_manifest_carries_intensity_summary(self, phantom_dataset):
        _, manifest = phantom_dataset
        rows = [feature_row(e.subject_id) for e in manifest]
        report = build_report(
            manifest, rows, [feature_row(e.subject_id) for e in manifest],
            GroupingSpec("te"), manifest_after=manifest,
        )
        summary = report["tissue_intensity"]["before"]
        assert set(summary) == {"fat", "dense", "heart", "tumor"}
        for stats in summary.values():
            assert stats["n"] == 40
            assert stats["std"] >= 0.0
        assert report["tissue_intensity"]["after"] == summary


class TestReportCsv:
    def test_flattened_rows(self, tmp_path):
        entries = [
            entry("a", te=1.5, label=0),
            entry("b", te=1.6, label=1),
            entry("c", te=2.5, label=0),
            entry("d", te=2.6, label=1),
        ]
        manifest = tuple(entries)
        rows = [feature_row(sid, i) for i, sid in enumerate("abcd")]
        report = build_report(manifest, rows, [feature_row(sid, 0.5) for sid in "abcd"], GroupingSpec("te"))
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "section,name,group,phase,metric,value"
        assert all(line.count(",") == 5 for line in lines)
        f1_mean = next(
            l for l in lines if l.startswith("features,F1,low,before,mean,")
        )
        expected = report["features"][0]["before"]["low_mean"]
        assert float(f1_mean.rsplit(",", 1)[1]) == expected
        auc_lines = [l for l in lines if l.startswith("auc,")]
        assert len(auc_lines) == 30
