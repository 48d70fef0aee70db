"""Cohort-level evaluation: grouping, distribution distance, discrimination.

Subjects are split into a low and a high group on one acquisition
parameter (echo time, repetition time, or field strength). Feature
distributions of the two groups are compared with the two-sample
Kolmogorov-Smirnov statistic before and after intensity normalization;
when tumor class labels are present a Mann-Whitney AUC per feature is
reported as well.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .features import FEATURE_NAMES, FeatureVector
from .manifest import SubjectEntry, check_subject_grids, load_subject_mask, load_volumes
from .model import midranks
from .volume import HEART, DENSE, FAT, TUMOR
from .util import write_csv

log = logging.getLogger(__name__)

GROUP_KEYS = ("te", "tr", "field")

DEFAULT_THRESHOLDS = {"te": 2.0, "tr": 4.5, "field": 3.0}

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GroupingSpec:
    """Which acquisition parameter splits the cohort, and where."""

    key: str
    threshold: float | None = None

    def __post_init__(self):
        if self.key not in GROUP_KEYS:
            raise ValidationError(f"unknown grouping key {self.key!r}, expected one of {GROUP_KEYS}")

    @property
    def cut(self) -> float:
        if self.threshold is not None:
            return float(self.threshold)
        return DEFAULT_THRESHOLDS[self.key]


def _entry_value(entry: SubjectEntry, key: str) -> float:
    if key == "te":
        return entry.te_ms
    if key == "tr":
        return entry.tr_ms
    return entry.field_t


def group_subjects(manifest: tuple[SubjectEntry, ...], spec: GroupingSpec) -> dict[str, list[str]]:
    """Partition subject ids into {"low": [...], "high": [...]}.

    Values greater than or equal to the threshold go to the high group.
    """
    groups: dict[str, list[str]] = {"low": [], "high": []}
    for entry in manifest:
        side = "high" if _entry_value(entry, spec.key) >= spec.cut else "low"
        groups[side].append(entry.subject_id)
    return groups


def ks_statistic(a, b) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic.

    Supremum of |ECDF_a - ECDF_b| over the pooled sample points.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("KS statistic needs non-empty samples on both sides")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("KS statistic got non-finite values")
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC of scores against binary labels, ties at 0.5.

    Computed from midranks: AUC = (R+ - n+(n+ + 1)/2) / (n+ n-) where
    R+ is the rank sum of the positive class.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("AUC needs matching 1-d scores and labels")
    if not np.isfinite(scores).all():
        raise ValidationError("AUC got non-finite scores")
    pos = labels == 1
    neg = labels == 0
    n_pos = int(np.count_nonzero(pos))
    n_neg = int(np.count_nonzero(neg))
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC needs at least one subject in each class")
    if n_pos + n_neg != scores.size:
        raise ValidationError("AUC labels must all be 0 or 1")
    rank_sum_pos = float(midranks(scores)[pos].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def feature_aucs(rows: list[FeatureVector], labels: dict[str, int]) -> dict[str, tuple]:
    """Single-feature AUC against binary labels over the rows where the feature is present.

    Per feature: ``(auc, n, None)``, or ``(None, n, error)`` where the AUC is undefined.
    """
    out = {}
    for name in FEATURE_NAMES:
        pairs = [(r.values[name], labels[r.subject_id]) for r in rows if r.values[name] is not None]
        try:
            out[name] = (roc_auc([p[0] for p in pairs], [p[1] for p in pairs]), len(pairs), None)
        except ValidationError as exc:
            out[name] = (None, len(pairs), exc)
    return out


_REPORT_TISSUES = {"fat": FAT, "dense": DENSE, "heart": HEART, "tumor": TUMOR}


def _feature_table(rows: list[FeatureVector]) -> dict[str, FeatureVector]:
    table = {}
    for row in rows:
        if row.subject_id in table:
            raise ValidationError(f"duplicate subject {row.subject_id} in feature rows")
        table[row.subject_id] = row
    return table


def _group_values(
    table: dict[str, FeatureVector], ids: list[str], name: str
) -> np.ndarray:
    vals = [table[sid].values[name] for sid in ids if table[sid].values[name] is not None]
    return np.asarray(vals, dtype=np.float64)


def _tissue_intensity_summary(manifest: tuple[SubjectEntry, ...]) -> dict[str, dict[str, float]] | None:
    """Mean/std of per-subject mean intensity (pre and first post) by tissue.

    Needs every subject to carry a mask; returns None otherwise. Only pre
    and the first post are loaded: they are all the summary reads. Pre's
    tissue means are taken before the first post loads, so a subject
    holds its mask and one volume.
    """
    if any(entry.mask is None for entry in manifest):
        return None
    per_tissue: dict[str, list[float]] = {name: [] for name in _REPORT_TISSUES}
    for entry in manifest:
        check_subject_grids(replace(entry, posts=entry.posts[:1]))
        mask = load_subject_mask(entry)
        means: dict[str, list[float]] = {}
        for volume in load_volumes((entry.pre, entry.posts[0])):
            for name, label in _REPORT_TISSUES.items():
                sel = mask.labels == label
                if sel.any():
                    means.setdefault(name, []).append(float(volume.data[sel].astype(np.float64).mean()))
            del volume  # not held while the first post loads
        for name, (pre_mean, post_mean) in means.items():
            per_tissue[name].append((pre_mean + post_mean) / 2.0)
    out = {}
    for name, vals in per_tissue.items():
        if not vals:
            continue
        arr = np.asarray(vals, dtype=np.float64)
        out[name] = {"mean": float(arr.mean()), "std": float(arr.std()), "n": int(arr.size)}
    return out


def build_report(
    manifest: tuple[SubjectEntry, ...],
    features_before: list[FeatureVector],
    features_after: list[FeatureVector],
    spec: GroupingSpec,
    *,
    manifest_after: tuple[SubjectEntry, ...] | None = None,
) -> dict:
    """Assemble the evaluation report structure.

    Both feature lists, and ``manifest_after`` when given, must cover
    exactly the manifest's subjects; that is checked before any volume
    is loaded. KS for a feature is computed over subjects where it is
    present; a feature missing everywhere is reported with null
    statistics.
    """
    ids = {entry.subject_id for entry in manifest}
    if manifest_after is not None:
        differ = ids ^ {entry.subject_id for entry in manifest_after}
        if differ:
            raise ValidationError(f"after manifest and manifest differ in subjects {sorted(differ)}")
    before = _feature_table(features_before)
    after = _feature_table(features_after)
    for label_, table in (("before", before), ("after", after)):
        if set(table) != ids:
            raise ValidationError(
                f"{label_} features cover {sorted(set(table))}, manifest has {sorted(ids)}"
            )

    groups = group_subjects(manifest, spec)
    if not groups["low"] or not groups["high"]:
        raise ValidationError(
            f"grouping by {spec.key!r} at {spec.cut} left a group empty "
            f"(low={len(groups['low'])}, high={len(groups['high'])})"
        )

    feature_rows = []
    for name in FEATURE_NAMES:
        row: dict = {"feature": name}
        for phase, table in (("before", before), ("after", after)):
            lo = _group_values(table, groups["low"], name)
            hi = _group_values(table, groups["high"], name)
            stats = {
                "low_n": int(lo.size),
                "high_n": int(hi.size),
                "low_mean": float(lo.mean()) if lo.size else None,
                "low_std": float(lo.std()) if lo.size else None,
                "high_mean": float(hi.mean()) if hi.size else None,
                "high_std": float(hi.std()) if hi.size else None,
                "ks": ks_statistic(lo, hi) if lo.size and hi.size else None,
            }
            row[phase] = stats
        b, a = row["before"]["ks"], row["after"]["ks"]
        row["ks_delta"] = (a - b) if (a is not None and b is not None) else None
        feature_rows.append(row)

    auc_rows = None
    labels_by_id = {e.subject_id: e.label for e in manifest}
    if all(v is not None for v in labels_by_id.values()) and len(set(labels_by_id.values())) == 2:
        before_aucs = feature_aucs(features_before, labels_by_id)
        after_aucs = feature_aucs(features_after, labels_by_id)
        auc_rows = [
            {"feature": name, "before": before_aucs[name][0], "after": after_aucs[name][0]}
            for name in FEATURE_NAMES
        ]

    intensity = {"before": _tissue_intensity_summary(manifest)}
    if manifest_after is not None:
        intensity["after"] = _tissue_intensity_summary(manifest_after)
    if intensity["before"] is None:
        log.warning("no masks in manifest, tissue intensity summary omitted")

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "grouping": {
            "key": spec.key,
            "threshold": spec.cut,
            "low": groups["low"],
            "high": groups["high"],
        },
        "features": feature_rows,
        "auc": auc_rows,
        "tissue_intensity": intensity,
    }


def _report_rows(report: dict):
    """The report's long-format rows: (section, name, group, phase, metric, value)."""
    grouping = report["grouping"]
    yield "grouping", grouping["key"], None, None, "threshold", grouping["threshold"]
    for side in ("low", "high"):
        yield "grouping", grouping["key"], side, None, "n", len(grouping[side])

    for row in report["features"]:
        name = row["feature"]
        for phase in ("before", "after"):
            stats = row[phase]
            for side in ("low", "high"):
                for metric in ("mean", "std", "n"):
                    yield "features", name, side, phase, metric, stats[f"{side}_{metric}"]
            yield "features", name, None, phase, "ks", stats["ks"]
        yield "features", name, None, None, "ks_delta", row["ks_delta"]

    for row in report["auc"] or ():
        for phase in ("before", "after"):
            yield "auc", row["feature"], None, phase, "auc", row[phase]

    for phase, summary in report["tissue_intensity"].items():
        for tissue, stats in (summary or {}).items():
            for metric in ("mean", "std", "n"):
                yield "tissue_intensity", tissue, None, phase, metric, stats[metric]


def write_report_csv(path: Path | str, report: dict) -> None:
    """Flatten the report to long-format CSV rows.

    Columns: section,name,group,phase,metric,value. Absent values are
    empty fields.
    """
    write_csv(path, ["section", "name", "group", "phase", "metric", "value"], _report_rows(report))
