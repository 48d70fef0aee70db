"""Output checks, run after timing and never timed.

Every check is one operation in the run's ``attempted`` count, as is
every subcommand run. The thresholds are those of
``tests/test_acceptance.py``:

* re-extracted anchors of every normalized series hit the model targets
  within 1e-4 relative;
* every ``--emit-mapping`` curve is non-decreasing, and exact at its
  anchors: each subject anchor appears as an anchor row whose value is
  the model target, bit for bit;
* F9 (mask geometry only) is identical before and after normalization;
* per workload, the KS distance between the acquisition groups drops
  for F10-F15 (``ks_drop``), or stays below a limit for the denoised
  F6 (``f6_ks_below``). The suite sets that limit on its noisy cohort
  at phantom seed ``SUITE_SEED`` and the program misses it at about one
  seed in six (README.md, known defect), so it is checked at that seed
  only; at any other seed the value is printed as a note;
* both feature CSVs and ``report.json`` match the reference committed
  under ``reference/<workload>/seed-<seed>.json`` within ``RTOL``.

The reference comparison allows a relative tolerance instead of byte
equality so that an equivalent computation done in another order still
passes. References exist for a fixed set of seeds (see README.md); for
any other seed that check is not attempted and the run says so.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from dcenorm import extract_anchors, load_manifest, load_mask, load_series, read_features_csv

from workloads import SUITE_SEED

TISSUES = ("air", "fat", "dense", "heart")
ANCHOR_RTOL = 1e-4
RTOL = 1e-6
ATOL = 1e-9
REFERENCE_DIGITS = 9
SNAPSHOT_FILES = ("before.csv", "after.csv", "report.json")


class Operations:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def attempt(self, name: str, check) -> None:
        """Run ``check()``, which returns (ok, detail); an exception fails it."""
        try:
            ok, detail = check()
        except Exception as exc:  # a crashing check is a failed check, not a crashed run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, ok, detail)


def _read_curve(path: Path) -> list[tuple[float, float, int]]:
    with open(path, newline="") as handle:
        return [(float(r["x"]), float(r["fx"]), int(r["is_anchor"])) for r in csv.DictReader(handle)]


def _curve_ok(path: Path, raw: dict, targets: dict):
    rows = _read_curve(path)
    xs = [r[0] for r in rows]
    fx = [r[1] for r in rows]
    if any(b < a for a, b in zip(xs, xs[1:])) or any(b < a for a, b in zip(fx, fx[1:])):
        return False, "curve is not non-decreasing"
    at_anchor = {x: f for x, f, flag in rows if flag == 1}
    for tissue in TISSUES:
        got = at_anchor.get(raw[tissue])
        if got != targets[tissue]:
            return False, f"{tissue}: f({raw[tissue]!r}) = {got!r}, target {targets[tissue]!r}"
    return True, ""


def _ks(report: dict, feature: str) -> tuple[float, float]:
    row = next(r for r in report["features"] if r["feature"] == feature)
    return row["before"]["ks"], row["after"]["ks"]


def check_outputs(workload, out: Path, seed: int, reference_root: Path, ops: Operations) -> None:
    """Run every output check on one finished walkthrough under ``out``."""
    model = json.loads((out / "model.json").read_text())
    targets = {t: float(model[f"m_{t}"]) for t in TISSUES}

    for entry in load_manifest(out / "norm" / "manifest.json"):
        def fixed_point(entry=entry):
            redone = extract_anchors(load_series(entry), load_mask(entry.mask)).values()
            worst = max(abs(redone[t] - targets[t]) / max(abs(targets[t]), 1e-12) for t in TISSUES)
            return worst <= ANCHOR_RTOL, f"worst relative error {worst:.3g}"

        ops.attempt(f"anchor-fixed-point {entry.subject_id}", fixed_point)

    for entry in load_manifest(out / "masks" / "manifest.json"):
        def curve(entry=entry):
            raw = extract_anchors(load_series(entry), load_mask(entry.mask)).values()
            return _curve_ok(out / "curves" / f"{entry.subject_id}_mapping.csv", raw, targets)

        ops.attempt(f"mapping-curve {entry.subject_id}", curve)

    before = {r.subject_id: r for r in read_features_csv(out / "before.csv")}
    after = {r.subject_id: r for r in read_features_csv(out / "after.csv")}
    for sid, row in before.items():
        ops.attempt(
            f"F9-unchanged {sid}",
            lambda row=row, sid=sid: (
                sid in after and row.values["F9"] == after[sid].values["F9"],
                f"before {row.values['F9']!r}, after {after[sid].values['F9'] if sid in after else None!r}",
            ),
        )

    report = json.loads((out / "report.json").read_text())
    for feature in workload.ks_drop:
        def drop(feature=feature):
            b, a = _ks(report, feature)
            return a < b, f"KS before {b!r}, after {a!r}"

        ops.attempt(f"ks-drop {feature}", drop)
    if workload.f6_ks_below is not None:
        limit = workload.f6_ks_below
        if seed == SUITE_SEED:
            def f6():
                _, a = _ks(report, "F6")
                return a < limit, f"denoised F6 KS {a!r}, limit {limit}"

            ops.attempt("denoised-F6-ks", f6)
        else:
            _, a = _ks(report, "F6")
            flag = f", not below the limit {limit}: the known defect in README.md" if a >= limit else ""
            ops.notes.append(f"denoised F6 KS {a!r} at seed {seed}, reported only{flag}")

    reference = reference_root / workload.name / f"seed-{seed}.json"
    if not reference.is_file():
        ops.notes.append(f"no committed reference for {workload.name} seed {seed}; reference check not attempted")
        return
    expected = json.loads(reference.read_text())
    got = snapshot(out)
    for name in SNAPSHOT_FILES:
        ops.attempt(f"reference {name}", lambda name=name: _match(expected[name], got[name], name))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def snapshot(out: Path) -> dict:
    """The outputs the reference pins, with floats rounded for storage."""
    snap = {}
    for name in ("before.csv", "after.csv"):
        with open(out / name, newline="") as handle:
            snap[name] = [[_cell(c) for c in row] for row in csv.reader(handle)]
    snap["report.json"] = json.loads((out / "report.json").read_text())
    return _rounded(snap)


def _rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{REFERENCE_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _match(expected, got, path: str):
    """(True, "") when ``got`` equals ``expected`` up to RTOL on numbers."""
    if _is_number(expected) and _is_number(got):
        if math.isclose(expected, got, rel_tol=RTOL, abs_tol=ATOL):
            return True, ""
        return False, f"{path}: expected {expected!r}, got {got!r}"
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return False, f"{path}: keys {sorted(got)} differ from {sorted(expected)}"
        items = ((f"{path}.{k}", expected[k], got[k]) for k in expected)
    elif isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return False, f"{path}: {len(got)} entries, expected {len(expected)}"
        items = ((f"{path}[{i}]", e, g) for i, (e, g) in enumerate(zip(expected, got)))
    else:
        return (expected == got), f"{path}: expected {expected!r}, got {got!r}"
    for sub, e, g in items:
        ok, detail = _match(e, g, sub)
        if not ok:
            return False, detail
    return True, ""
