import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcenorm
from dcenorm import (
    GroupSpec, PhantomConfig, TissueMask, Volume, build_mapping, extract_anchors, generate_phantom, map_volume,
    load_manifest, load_mask, load_model, load_series, load_volume, read_features_csv, save_mask, save_volume,
    train_archetype,
)
from dcenorm import cli
from dcenorm import mapping as mapping_mod
from dcenorm import volume as volume_mod
from dcenorm.cli import load_cli_config, main
from dcenorm.manifest import subject_file
from dcenorm.segmentation import SegmentationConfig
from dcenorm.volume import AIR, DENSE, FAT, HEART, TUMOR

from helpers import peak_rss_growth, read_subject

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every subcommand once on a five-subject cohort.

    The phantom manifest ships truth masks; a stripped copy forces the
    segment stage down the classical path so later stages run on masks
    the pipeline produced itself.
    """
    root = tmp_path_factory.mktemp("cli-pipeline")
    cfg = root / "phantom.json"
    cfg.write_text(json.dumps({
        "groups": [
            {"name": "A", "n_subjects": 3},
            {"name": "B", "n_subjects": 2, "scale": 1.5, "offset": 50.0,
             "te_ms": 2.6, "tr_ms": 5.2, "field_t": 3.0},
        ],
    }))
    data = root / "data"
    steps = [["phantom", "--out", str(data), "--config", str(cfg), "--jobs", "2"]]

    records = None

    def run(argv):
        rc = main(argv)
        assert rc == 0, argv
    run(steps[0])

    records = json.loads((data / "manifest.json").read_text())
    for record in records:
        record.pop("mask")
    nomask = data / "manifest_nomask.json"
    nomask.write_text(json.dumps(records))

    seg = root / "seg"
    run(["segment", "--manifest", str(nomask), "--out-dir", str(seg), "--jobs", "2"])
    run(["train", "--manifest", str(seg / "manifest.json"), "--out", str(root / "model.json"),
         "--emit-anchors", str(root / "anchors.json"), "--jobs", "2"])
    norm = root / "norm"
    run(["normalize", "--manifest", str(seg / "manifest.json"), "--model", str(root / "model.json"),
         "--out-dir", str(norm), "--emit-mapping", str(root / "curves"), "--jobs", "2"])
    run(["features", "--manifest", str(seg / "manifest.json"), "--out", str(root / "before.csv"),
         "--jobs", "2"])
    run(["features", "--manifest", str(norm / "manifest.json"), "--out", str(root / "after.csv"),
         "--normalized", "--jobs", "2"])
    run(["evaluate", "--before", str(root / "before.csv"), "--after", str(root / "after.csv"),
         "--manifest", str(seg / "manifest.json"), "--group-by", "te",
         "--manifest-after", str(norm / "manifest.json"), "--out", str(root / "report.json")])
    run(["auc", "--features", str(root / "before.csv"), "--labels", str(data / "labels.csv"),
         "--out", str(root / "auc.csv")])
    return root


SUBJECTS = ["A000", "B000", "A001", "B001", "A002"]


def _forbid_loading(monkeypatch, message):
    """Make any load of a subject's volume or mask fail with ``message``: every stage loads through the manifest."""
    def no_loading(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr("dcenorm.manifest.load_volume", no_loading)
    monkeypatch.setattr("dcenorm.manifest.load_mask", no_loading)


class TestPipeline:
    def test_phantom_outputs(self, pipeline):
        data = pipeline / "data"
        assert (data / "labels.csv").exists()
        assert [e.subject_id for e in load_manifest(data / "manifest.json")] == SUBJECTS

    def test_segment_emits_masks_and_manifest(self, pipeline):
        seg = pipeline / "seg"
        for sid in SUBJECTS:
            assert (seg / f"{sid}_mask.json").exists()
            assert (seg / f"{sid}_mask.raw").exists()
        manifest = load_manifest(seg / "manifest.json")
        assert [e.subject_id for e in manifest] == SUBJECTS
        assert all(entry.mask is not None for entry in manifest)

    def test_train_outputs(self, pipeline):
        model = load_model(pipeline / "model.json")
        assert model.archetype_subject_id in SUBJECTS
        anchors = json.loads((pipeline / "anchors.json").read_text())
        assert [a["subject_id"] for a in anchors] == SUBJECTS
        assert all(a["v_fat"] > a["v_air"] for a in anchors)
        for record, entry in zip(anchors, load_manifest(pipeline / "seg" / "manifest.json")):
            expected = dataclasses.asdict(extract_anchors(*read_subject(entry)))
            assert list(record.items()) == list(expected.items())

    def test_normalize_outputs_load_as_manifest(self, pipeline):
        manifest = load_manifest(pipeline / "norm" / "manifest.json")
        assert [e.subject_id for e in manifest] == SUBJECTS
        entry = manifest[SUBJECTS.index("A000")]
        assert len(entry.posts) == 3 and entry.mask is not None

    def test_segment_references_manifest_masks(self, pipeline):
        out = pipeline / "seg_given"
        assert main(["segment", "--manifest", str(pipeline / "data" / "manifest.json"),
                     "--out-dir", str(out), "--jobs", "2"]) == 0
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        records = json.loads((out / "manifest.json").read_text())
        assert [r["mask"] for r in records] == [f"../data/{sid}_mask.json" for sid in SUBJECTS]

    def test_normalize_references_masks_it_read(self, pipeline):
        records = json.loads((pipeline / "norm" / "manifest.json").read_text())
        assert [r["mask"] for r in records] == [f"../seg/{sid}_mask.json" for sid in SUBJECTS]
        assert not list((pipeline / "norm").glob("*_mask.*"))

    def test_mapping_curves_monotone(self, pipeline):
        """Each curve is 256 samples over [v0 - 0.05 span, v3 + 0.25 span] of the subject's anchors, plus its knots."""
        anchors = {a["subject_id"]: a for a in json.loads((pipeline / "anchors.json").read_text())}
        for sid in SUBJECTS:
            with open(pipeline / "curves" / f"{sid}_mapping.csv", newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == ["x", "fx", "is_anchor"]
            assert len(rows) - 1 == 260
            fx = [float(r[1]) for r in rows[1:]]
            assert all(b >= a for a, b in zip(fx, fx[1:]))
            assert sum(r[2] == "1" for r in rows[1:]) == 4
            v = sorted(anchors[sid][f"v_{t}"] for t in ("air", "fat", "dense", "heart"))
            span = v[3] - v[0]
            assert float(rows[1][0]) == v[0] - 0.05 * span
            assert float(rows[-1][0]) == v[3] + 0.25 * span

    def test_feature_csv_flags(self, pipeline):
        before = read_features_csv(pipeline / "before.csv")
        after = read_features_csv(pipeline / "after.csv")
        assert [r.subject_id for r in before] == SUBJECTS
        assert not any(r.normalized for r in before)
        assert all(r.normalized for r in after)
        # classical masks carry no tumor tissue, so tumor features are absent
        assert all(r.values["F2"] is None for r in before)
        assert all(r.values["F10"] is not None for r in before)

    def test_normalization_tightens_group_gap(self, pipeline):
        def gap(path):
            rows = read_features_csv(path)
            by_group = {"A": [], "B": []}
            for row in rows:
                by_group[row.subject_id[0]].append(row.values["F10"])
            return abs(np.mean(by_group["A"]) - np.mean(by_group["B"]))

        assert gap(pipeline / "after.csv") < 0.2 * gap(pipeline / "before.csv")

    def test_report_structure(self, pipeline):
        report = json.loads((pipeline / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["grouping"]["key"] == "te"
        assert set(report["grouping"]["low"]) == {"A000", "A001", "A002"}
        f10 = next(row for row in report["features"] if row["feature"] == "F10")
        assert f10["after"]["ks"] <= f10["before"]["ks"]
        assert report["tissue_intensity"]["after"] is not None
        assert (pipeline / "report.csv").exists()

    def test_auc_csv(self, pipeline):
        lines = (pipeline / "auc.csv").read_text().strip().splitlines()
        assert lines[0] == "feature,auc,n"
        assert len(lines) == 16
        by_name = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert 0.0 <= float(by_name["F1"][1]) <= 1.0 and by_name["F1"][2] == "5"
        assert by_name["F2"] == ["F2", "", "0"]

    def test_auc_csv_matches_report(self, pipeline, tmp_path, caplog):
        out = tmp_path / "auc.csv"
        rc = main(["auc", "--features", str(pipeline / "before.csv"),
                   "--labels", str(pipeline / "data" / "labels.csv"), "--out", str(out)])
        assert rc == 0
        assert "feature F2: AUC unavailable" in caplog.text
        report = json.loads((pipeline / "report.json").read_text())
        assert report["auc"] is not None
        lines = out.read_text().strip().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == [row["feature"] for row in report["auc"]]
        for line, row in zip(lines, report["auc"]):
            value = line.split(",")[1]
            assert (float(value) if value else None) == row["before"]


class TestErrorPaths:
    def test_missing_model_is_io_failure(self, tmp_path, pipeline, capsys):
        rc = main(["normalize", "--manifest", str(pipeline / "seg" / "manifest.json"),
                   "--model", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[io]:")

    def test_unknown_config_section_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"typo_section": {}}')
        rc = main(["segment", "--manifest", "x.json", "--out-dir", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        assert "typo_section" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, key", [
        (["segment", "--manifest", "x.json", "--out-dir", "o"], {"segmentation": {"polarity_x": 1}}, "polarity_x"),
        (["evaluate", "--before", "b.csv", "--after", "a.csv", "--manifest", "x.json", "--group-by", "te",
          "--out", "r.json"], {"evaluation": {"group_by": "te"}}, "group_by"),
        (["phantom", "--out", "d"], {"seed": 3}, "seed"),
    ], ids=["segmentation-key", "evaluation-group-by", "phantom-seed"])
    def test_unknown_config_key_named(self, tmp_path, monkeypatch, capsys, argv, config, key):
        """A removed key, or one whose only way in is a flag, fails as an unknown key."""
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(config))
        rc = main([*argv, "--config", "cfg.json"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "unknown keys" in err and key in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["segment", "--manifest", "x.json", "--out-dir", "o"],
        ["evaluate", "--before", "b.csv", "--after", "a.csv", "--manifest", "x.json", "--group-by", "te",
         "--out", "r.json"],
    ], ids=["segment", "evaluate"])
    def test_anchors_section_is_unknown(self, tmp_path, monkeypatch, capsys, argv):
        """The lower-tail floor is fixed, so no config section sets it."""
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text('{"anchors": {"clamp_floor": 0.0}}')
        rc = main([*argv, "--config", "cfg.json"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "unknown keys" in err and "anchors" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["train", "normalize", "features"])
    def test_stages_that_read_no_setting_take_no_config(self, pipeline, tmp_path, capsys, command):
        (tmp_path / "cfg.json").write_text("{}")
        argv = {
            "train": ["train", "--out", str(tmp_path / "model.json")],
            "normalize": ["normalize", "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path / "norm")],
            "features": ["features", "--out", str(tmp_path / "f.csv")],
        }[command]
        rc = main([*argv, "--manifest", str(pipeline / "seg" / "manifest.json"), "--config", str(tmp_path / "cfg.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "--config" in err
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_evaluate_needs_group_by(self, pipeline, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["evaluate", "--before", str(pipeline / "before.csv"), "--after", str(pipeline / "after.csv"),
                   "--manifest", str(pipeline / "seg" / "manifest.json"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "--group-by" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_denoise_flag_checked_before_subjects_load(self, pipeline, tmp_path, capsys, monkeypatch):
        _forbid_loading(monkeypatch, "subject loaded before the flag was checked")
        out = tmp_path / "f.csv"
        rc = main(["features", "--manifest", str(pipeline / "seg" / "manifest.json"),
                   "--out", str(out), "--denoise-median", "-1", "--jobs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "--denoise-median" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_unknown_flag_is_validation_failure(self, capsys):
        rc = main(["phantom", "--out", "d", "--bogus"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[validation]:")

    @pytest.mark.parametrize("config", [None, '{"typo_section": {}}'], ids=["missing", "unknown-section"])
    def test_auc_takes_no_config(self, pipeline, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(config)
        out = tmp_path / "auc.csv"
        rc = main(["auc", "--features", str(pipeline / "before.csv"), "--labels", str(pipeline / "data" / "labels.csv"),
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "--config" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("subject_id, argv", [
        ("../escaped/A0", ["normalize", "--model", "{root}/model.json", "--out-dir", "{tmp}/out/norm"]),
        ("B,0", ["features", "--out", "{tmp}/out/f.csv"]),
    ], ids=["path", "comma"])
    def test_unsafe_subject_id_writes_nothing(self, pipeline, tmp_path, capsys, subject_id, argv):
        seg = pipeline / "seg"
        records = [_absolute_paths(rec, seg) for rec in json.loads((seg / "manifest.json").read_text())]
        records[0]["subject_id"] = subject_id
        (tmp_path / "manifest.json").write_text(json.dumps(records))
        argv = [a.format(tmp=tmp_path, root=pipeline) for a in argv]
        rc = main([*argv, "--manifest", str(tmp_path / "manifest.json"), "--jobs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]: entry 0: subject_id") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_evaluate_requires_group_key(self, pipeline, capsys):
        rc = main(["evaluate", "--before", str(pipeline / "before.csv"),
                   "--after", str(pipeline / "after.csv"),
                   "--manifest", str(pipeline / "seg" / "manifest.json"),
                   "--out", str(pipeline / "r2.json")])
        assert rc == 1
        assert "group" in capsys.readouterr().err

    def test_malformed_manifest_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text('[\n{"subject_id": }\n]')
        rc = main(["train", "--manifest", str(bad), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_segment_failing_every_subject(self, tmp_path):
        """Run as a real process, so a log line reaching stderr would show as a second line."""
        (tmp_path / "manifest.json").write_text(json.dumps([_unsegmentable_record(tmp_path)]))
        done = _run_process(["-m", "dcenorm", "segment", "--manifest", str(tmp_path / "manifest.json"),
                             "--out-dir", str(tmp_path / "seg"), "--jobs", "1"])
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith("error[validation]: segmentation failed for every subject: c0: ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_segment_failing_on_degenerate_breasts_prints_only_its_error_line(self, tmp_path, jobs):
        """Fat, dense and tumor share one intensity and there is no noise, so each breast's histogram is
        degenerate; run as a real process, so a worker's log line would show before the error line."""
        (tmp_path / "phantom.json").write_text(json.dumps({
            "dims": [48, 48, 12], "intensities": {"fat": 400.0, "dense": 400.0, "tumor": 400.0},
            "groups": [{"name": "A", "n_subjects": 2, "noise_sigma": 0.0}],
        }))
        data = tmp_path / "data"
        assert main(["phantom", "--config", str(tmp_path / "phantom.json"), "--out", str(data), "--jobs", "1"]) == 0
        records = json.loads((data / "manifest.json").read_text())
        (data / "nomask.json").write_text(json.dumps([{k: v for k, v in r.items() if k != "mask"} for r in records]))
        done = _run_process(["-m", "dcenorm", "segment", "--manifest", str(data / "nomask.json"),
                             "--out-dir", str(tmp_path / "seg"), "--jobs", jobs])
        assert done.returncode == 1
        reason = "degenerate intensity histogram inside breast"
        assert done.stderr == f"error[validation]: segmentation failed for every subject: A000: {reason}; A001: {reason}\n"

    def test_phantom_overflow_prints_only_its_error_line(self, tmp_path):
        """Run as a real process, so a numpy warning reaching stderr would show before the error line."""
        (tmp_path / "phantom.json").write_text(json.dumps({"dims": [8, 8, 8], "intensities": {"fat": 1e308}}))
        done = _run_process(["-m", "dcenorm", "phantom", "--config", str(tmp_path / "phantom.json"),
                             "--out", str(tmp_path / "data"), "--jobs", "1"])
        assert done.returncode == 1
        assert done.stderr == "error[validation]: volume contains NaN or infinite values\n"

    @pytest.mark.parametrize("targets", [
        {"m_heart": 1e300},  # overflows float32
        {"m_air": -1.7e308, "m_dense": -1.6e308, "m_fat": 1.6e308, "m_heart": 1.7e308},  # inf rise: NaN at a knot
    ], ids=["overflow", "nan"])
    def test_normalize_non_finite_result_prints_only_its_error_line(self, tmp_path, targets):
        """Finite but extreme model targets map some voxels to no float32 value; run as a real
        process with two workers, so a numpy warning from either would show before the error line."""
        (tmp_path / "phantom.json").write_text(json.dumps({"dims": [16, 16, 8],
                                                           "groups": [{"name": "A", "n_subjects": 2}]}))
        data, model = tmp_path / "data", tmp_path / "model.json"
        assert main(["phantom", "--config", str(tmp_path / "phantom.json"), "--out", str(data),
                     "--jobs", "1"]) == 0
        assert main(["train", "--manifest", str(data / "manifest.json"), "--out", str(model), "--jobs", "1"]) == 0
        model.write_text(json.dumps(dict(json.loads(model.read_text()), **targets)))
        done = _run_process(["-m", "dcenorm", "normalize", "--manifest", str(data / "manifest.json"),
                             "--model", str(model), "--out-dir", str(tmp_path / "norm"), "--jobs", "2"])
        assert done.returncode == 1
        assert done.stderr == "error[validation]: subject A000: mapped volume contains NaN or infinite values\n"

    @pytest.mark.parametrize("argv", [
        ["phantom", "--out", "d"],
        ["segment", "--manifest", "m.json", "--out-dir", "d"],
        ["train", "--manifest", "m.json", "--out", "model.json"],
        ["normalize", "--manifest", "m.json", "--model", "model.json", "--out-dir", "d"],
        ["features", "--manifest", "m.json", "--out", "f.csv"],
        ["evaluate", "--before", "b.csv", "--after", "a.csv", "--manifest", "m.json", "--group-by", "te",
         "--out", "r.json"],
        ["auc", "--features", "f.csv", "--labels", "l.csv", "--out", "auc.csv"],
    ], ids=lambda argv: argv[0])
    def test_masks_flag_rejected(self, tmp_path, capsys, argv):
        assert main([*argv, "--masks", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "--masks" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--out", "{tmp}/model.json"],
        ["normalize", "--model", "{root}/model.json", "--out-dir", "{tmp}/norm"],
        ["features", "--out", "{tmp}/f.csv"],
    ], ids=lambda argv: argv[0])
    def test_subject_without_mask_names_segment(self, pipeline, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path, root=pipeline) for a in argv]
        rc = main([*argv, "--manifest", str(pipeline / "data" / "manifest_nomask.json"), "--jobs", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]: subject A000:") and "dcenorm segment" in err
        assert len(err.splitlines()) == 1

    def test_segment_logs_skips_when_a_subject_succeeds(self, pipeline, tmp_path, caplog):
        data = pipeline / "data"
        good = _absolute_paths(json.loads((data / "manifest_nomask.json").read_text())[0], data)
        (tmp_path / "manifest.json").write_text(json.dumps([_unsegmentable_record(tmp_path), good]))
        rc = main(["segment", "--manifest", str(tmp_path / "manifest.json"),
                   "--out-dir", str(tmp_path / "seg"), "--jobs", "1"])
        assert rc == 0
        assert [e.subject_id for e in load_manifest(tmp_path / "seg" / "manifest.json")] == [good["subject_id"]]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1 and messages[0].startswith("subject c0 skipped: "), messages

    def test_non_finite_acquisition_parameter_rejected(self, pipeline, tmp_path, capsys):
        data = pipeline / "data"
        records = [_absolute_paths(rec, data) for rec in json.loads((data / "manifest.json").read_text())]
        records[1]["te_ms"] = math.nan
        (tmp_path / "manifest.json").write_text(json.dumps(records))
        rc = main(["train", "--manifest", str(tmp_path / "manifest.json"),
                   "--out", str(tmp_path / "model.json"), "--jobs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error[validation]:") and "te_ms" in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("config, key", [
        ('{"segmentation": {"air_fraction": "x"}}', "air_fraction"),
        ('{"segmentation": {"heart_enhancement_percentile": null}}', "heart_enhancement_percentile"),
        ('{"segmentation": {"min_component_voxels": 2.5}}', "min_component_voxels"),
        ('{"segmentation": {"morphology_radius": true}}', "morphology_radius"),
        ('{"evaluation": {"threshold": "2.0"}}', "threshold"),
        ('{"evaluation": {"threshold": NaN}}', "threshold"),
    ])
    def test_config_value_types_checked(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        rc = main(["segment", "--manifest", "x.json", "--out-dir", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and key in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("edit, column", [
        (lambda row: row[:3] + ["abc"] + row[4:], "F3"),
        (lambda row: row[:5], "field count"),
        (lambda row: row + ["1"], "field count"),
        (lambda row: row[:16] + ["yes"] + row[17:], "denoised"),
        (lambda row: row[:17] + ["2"], "normalized"),
        (lambda row: row[:3] + ["nan"] + row[4:], "F3"),
        (lambda row: row[:4] + ["inf"] + row[5:], "F4"),
        (lambda row: row[:1] + ["-Infinity"] + row[2:], "F1"),
    ], ids=["non-numeric", "short-row", "long-row", "denoised-flag", "normalized-flag", "nan", "inf", "minus-infinity"])
    def test_malformed_feature_rows_named(self, pipeline, tmp_path, capsys, edit, column):
        rows = list(csv.reader((pipeline / "before.csv").read_text().splitlines()))
        rows[2] = edit(rows[2])
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join(",".join(row) for row in rows) + "\n")
        rc = main(["auc", "--features", str(bad), "--labels", str(pipeline / "data" / "labels.csv"),
                   "--out", str(tmp_path / "auc.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and len(err.splitlines()) == 1
        assert rows[2][0] in err and column in err and str(bad) in err

    @pytest.mark.parametrize("edit", [lambda row: row + ["7"], lambda row: row[:1]], ids=["extra-field", "short-row"])
    def test_malformed_label_rows_named(self, pipeline, tmp_path, capsys, edit):
        rows = list(csv.reader((pipeline / "data" / "labels.csv").read_text().splitlines()))
        rows[1] = edit(rows[1])
        bad = tmp_path / "labels.csv"
        bad.write_text("\n".join(",".join(row) for row in rows) + "\n")
        rc = main(["auc", "--features", str(pipeline / "before.csv"), "--labels", str(bad),
                   "--out", str(tmp_path / "auc.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and len(err.splitlines()) == 1
        assert rows[1][0] in err and "field count" in err and str(bad) in err

    @pytest.mark.parametrize("reader, column", [("labels", "label"), ("features", "F3")])
    def test_repeated_header_column_named(self, pipeline, tmp_path, capsys, reader, column):
        """csv.DictReader keeps a repeated column's last values, so the header must name each once."""
        source = pipeline / "data" / "labels.csv" if reader == "labels" else pipeline / "before.csv"
        rows = list(csv.reader(source.read_text().splitlines()))
        at = rows[0].index(column)
        bad = tmp_path / source.name
        bad.write_text("\n".join(",".join(row + [row[at]]) for row in rows) + "\n")
        files = {"labels": pipeline / "data" / "labels.csv", "features": pipeline / "before.csv", reader: bad}
        rc = main(["auc", "--features", str(files["features"]), "--labels", str(files["labels"]),
                   "--out", str(tmp_path / "auc.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and len(err.splitlines()) == 1
        assert repr(column) in err and str(bad) in err
        assert not (tmp_path / "auc.csv").exists()

    @pytest.mark.parametrize("which", ["manifest", "manifest-after"])
    def test_manifest_entry_errors_name_the_manifest(self, pipeline, tmp_path, capsys, which):
        """evaluate reads two manifests, so an entry's error must say which one it is in."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"subject_id": "s0"}]))
        files = {"manifest": pipeline / "seg" / "manifest.json", "manifest-after": pipeline / "norm" / "manifest.json",
                 which: bad}
        rc = main(["evaluate", "--before", str(pipeline / "before.csv"), "--after", str(pipeline / "after.csv"),
                   "--manifest", str(files["manifest"]), "--manifest-after", str(files["manifest-after"]),
                   "--group-by", "te", "--out", str(tmp_path / "report.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]: entry 0 is missing required keys") and len(err.splitlines()) == 1
        assert err.rstrip().endswith(f"[{bad}]")

    @pytest.mark.parametrize("command, source", [("auc", "before.csv"), ("evaluate", "before.csv"),
                                                 ("auc", "data/labels.csv")], ids=["auc", "evaluate", "auc-labels"])
    def test_repeated_feature_row_named(self, pipeline, tmp_path, capsys, command, source):
        """A features or labels CSV gives each subject once: auc would otherwise count a repeated row twice."""
        lines = (pipeline / source).read_text().splitlines()
        bad = tmp_path / Path(source).name
        bad.write_text("\n".join(lines + [lines[1]]) + "\n")
        features = bad if source == "before.csv" else pipeline / "before.csv"
        labels = bad if source == "data/labels.csv" else pipeline / "data" / "labels.csv"
        out = tmp_path / ("auc.csv" if command == "auc" else "report.json")
        argv = {
            "auc": ["auc", "--features", str(features), "--labels", str(labels)],
            "evaluate": ["evaluate", "--before", str(bad), "--after", str(pipeline / "after.csv"),
                         "--manifest", str(pipeline / "seg" / "manifest.json"), "--group-by", "te"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and len(err.splitlines()) == 1
        assert f"duplicate subject {SUBJECTS[0]}" in err and str(bad) in err
        assert not out.exists()

    def test_manifest_after_must_name_the_manifest_subjects(self, pipeline, tmp_path, capsys, monkeypatch):
        """A report must not give its before and after tissue intensities over different subjects."""
        norm = pipeline / "norm"
        records = json.loads((norm / "manifest.json").read_text())
        sliced = tmp_path / "after.json"
        sliced.write_text(json.dumps([_absolute_paths(r, norm) for r in records[:4]]))

        _forbid_loading(monkeypatch, "a volume was loaded before the subjects were checked")
        rc = main(["evaluate", "--before", str(pipeline / "before.csv"), "--after", str(pipeline / "after.csv"),
                   "--manifest", str(pipeline / "seg" / "manifest.json"), "--manifest-after", str(sliced),
                   "--group-by", "te", "--out", str(tmp_path / "report.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and len(err.splitlines()) == 1
        assert SUBJECTS[4] in err and not any(sid in err for sid in SUBJECTS[:4])
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("volume, keys, payload, message", [
        ("mask", {"dims": [8, 8, 8]}, lambda payload: bytes(8 * 8 * 8), "mask and series are on different grids"),
        ("mask", {"spacing_mm": [9.0, 9.0, 9.0]}, lambda payload: payload, "mask and series are on different grids"),
        ("post2", {"spacing_mm": [9.0, 9.0, 9.0]}, lambda payload: payload, "post2 and pre are on different grids"),
    ], ids=["mask-dims", "mask-spacing", "post2-spacing"])
    def test_segment_checks_grids_from_the_sidecars(self, pipeline, tmp_path, capsys, volume, keys, payload, message):
        def edit(sidecar):
            sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), **keys)))

        manifest = _damaged_subject(pipeline, tmp_path, volume, payload, sidecar=edit)
        rc = main(["segment", "--manifest", str(manifest), "--out-dir", str(tmp_path / "seg"), "--jobs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and message in err and len(err.splitlines()) == 1

    def test_dense_threshold_method_is_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"segmentation": {"dense_threshold_method": "otsu"}}')
        rc = main(["segment", "--manifest", "x.json", "--out-dir", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "dense_threshold_method" in err
        assert len(err.splitlines()) == 1

    def test_evaluate_checks_mask_geometry(self, pipeline, tmp_path, capsys):
        seg = pipeline / "seg"
        records = json.loads((seg / "manifest.json").read_text())
        for record in records:
            record["pre"] = str(seg / record["pre"])
            record["posts"] = [str(seg / p) for p in record["posts"]]
            record["mask"] = str(seg / record["mask"])
        records[0]["mask"] = str(save_mask(TissueMask(np.ones((8, 8, 8), np.uint8), (2.0, 2.0, 4.0)),
                                           tmp_path / "small_mask"))
        (tmp_path / "manifest.json").write_text(json.dumps(records))
        rc = main(["evaluate", "--before", str(pipeline / "before.csv"),
                   "--after", str(pipeline / "after.csv"),
                   "--manifest", str(tmp_path / "manifest.json"), "--group-by", "te",
                   "--out", str(tmp_path / "report.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "mask and series are on different grids" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("config, key", [
        ({"dims": ["x", 16, 8]}, "dims"),
        ({"intensities": {"fat": "x"}}, "intensities"),
        ({"gradient_range": [0.1]}, "gradient_range"),
        ({"groups": [{"name": "A", "n_subjects": "2"}]}, "n_subjects"),
        ({"n_posts": 1.5}, "n_posts"),
        ({"enhancement": {"fat": 5}}, "enhancement"),
        ({"spacing_mm": [2.0, "x", 4.0]}, "spacing_mm"),
    ])
    def test_phantom_config_types_checked(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "phantom.json"
        cfg.write_text(json.dumps(config))
        rc = main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "data"), "--jobs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and key in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("field, value", [("pre", 5), ("posts", [5]), ("mask", ["m"])])
    def test_manifest_path_types_checked(self, tmp_path, capsys, field, value):
        entry = {"subject_id": "s0", "pre": "s0_pre.json", "posts": ["s0_post1.json"],
                 "te_ms": 1.8, "tr_ms": 4.0, "field_t": 1.5, field: value}
        (tmp_path / "manifest.json").write_text(json.dumps([entry]))
        rc = main(["train", "--manifest", str(tmp_path / "manifest.json"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "s0" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key, value", [
        ("m_air", "x"), ("m_heart", None), ("m_fat", True), ("n_training", 2.5),
        ("m_heart", math.inf), ("m_air", math.nan),
    ])
    def test_model_value_types_checked(self, pipeline, tmp_path, capsys, key, value):
        payload = json.loads((pipeline / "model.json").read_text())
        payload[key] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        rc = main(["normalize", "--manifest", str(pipeline / "seg" / "manifest.json"),
                   "--model", str(model), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and key in err
        assert len(err.splitlines()) == 1


class TestOtherFlags:
    def test_phantom_seed_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dims": [16, 16, 8],
            "groups": [{"name": "A", "n_subjects": 2}],
        }))
        for name in ("one", "two"):
            rc = main(["phantom", "--out", str(tmp_path / name), "--config", str(cfg),
                       "--seed", "5", "--jobs", "1"])
            assert rc == 0
        for fname in ("labels.csv", "A000_pre.raw", "A001_post2.raw"):
            assert (tmp_path / "one" / fname).read_bytes() == (tmp_path / "two" / fname).read_bytes()

    def test_features_denoise_flag(self, pipeline, tmp_path):
        out = tmp_path / "denoised.csv"
        rc = main(["features", "--manifest", str(pipeline / "seg" / "manifest.json"),
                   "--out", str(out), "--denoise-median", "1", "--jobs", "2"])
        assert rc == 0
        rows = read_features_csv(out)
        assert all(r.denoised for r in rows)


def test_segment_and_normalize_jobs_return_entries(pipeline, tmp_path):
    entry = load_manifest(pipeline / "data" / "manifest_nomask.json")[0]
    masked, reason = cli._segment_job(entry, str(tmp_path / "seg"), SegmentationConfig())
    assert reason is None
    assert masked == dataclasses.replace(entry, mask=tmp_path / "seg" / "A000_mask.json")
    assert (tmp_path / "seg" / "A000_mask.raw").read_bytes() == (pipeline / "seg" / "A000_mask.raw").read_bytes()

    model = load_model(pipeline / "model.json")
    normalized = cli._normalize_job(masked, model, str(tmp_path / "norm"), None)
    posts = tuple(tmp_path / "norm" / f"A000_post{k}.json" for k in (1, 2, 3))
    assert normalized == dataclasses.replace(masked, pre=tmp_path / "norm" / "A000_pre.json", posts=posts)
    for name in ("A000_pre.raw", "A000_post3.raw"):
        assert (tmp_path / "norm" / name).read_bytes() == (pipeline / "norm" / name).read_bytes()


def _tree_bytes(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("spelling", ["data", "data/../data", "alias"])
@pytest.mark.parametrize("command", ["segment", "normalize"])
def test_out_dir_may_not_overwrite_an_input(pipeline, tmp_path, command, spelling):
    """An --out-dir that would write over the manifest or a volume the run reads fails before writing anything."""
    data = tmp_path / "data"
    generate_phantom(PhantomConfig(groups=(GroupSpec(name="A", n_subjects=1),)), data)
    (tmp_path / "alias").symlink_to(data, target_is_directory=True)
    if command == "segment":  # the mask is dropped, so segment would write the manifest over its input
        records = json.loads((data / "manifest.json").read_text())
        del records[0]["mask"]
        (data / "manifest.json").write_text(json.dumps(records))
        argv = ["segment"]
    else:
        argv = ["normalize", "--model", str(pipeline / "model.json"), "--emit-mapping", str(tmp_path / "curves")]
    before = _tree_bytes(tmp_path)
    rc, err = _run([*argv, "--manifest", str(data / "manifest.json"), "--out-dir", str(tmp_path / spelling),
                    "--jobs", "1"])
    assert _tree_bytes(tmp_path) == before
    assert rc == 1
    assert err == f"error[validation]: --out-dir holds a file the run reads [{data / 'manifest.json'}]\n"


def test_segment_may_not_write_into_the_directory_of_its_manifest(tmp_path):
    """A mask-less copy of a manifest, segmented into its own directory, would replace that
    dataset's ground-truth masks and manifest: the run fails, naming the copy, and writes nothing."""
    data = tmp_path / "data"
    generate_phantom(PhantomConfig(groups=(GroupSpec(name="A", n_subjects=1),)), data)
    records = json.loads((data / "manifest.json").read_text())
    del records[0]["mask"]
    (data / "nomask.json").write_text(json.dumps(records))
    before = _tree_bytes(data)
    rc, err = _launch(["segment", "--manifest", str(data / "nomask.json"), "--out-dir", str(data), "--jobs", "1"])
    assert _tree_bytes(data) == before
    assert (rc, err) == (1, f"error[validation]: --out-dir holds a file the run reads [{data / 'nomask.json'}]\n")


@pytest.mark.parametrize("out_dir", ["data", "links"], ids=["link-target-there", "link-there"])
@pytest.mark.parametrize("command", ["segment", "normalize"])
def test_out_dir_may_not_hold_a_linked_input(pipeline, tmp_path, command, out_dir):
    """An input that is a link is found in --out-dir both where it is and where it points: a run would
    replace the link, or the file it points to."""
    data, links = tmp_path / "data", tmp_path / "links"
    generate_phantom(PhantomConfig(dims=(16, 16, 8), groups=(GroupSpec(name="A", n_subjects=1),)), data)
    links.mkdir()
    for name in ("A000_pre.json", "A000_pre.raw"):
        (links / name).symlink_to(data / name)
    record = _absolute_paths(json.loads((data / "manifest.json").read_text())[0], data)
    (tmp_path / "manifest.json").write_text(json.dumps([dict(record, pre=str(links / "A000_pre.json"))]))
    argv = ["normalize", "--model", str(pipeline / "model.json")] if command == "normalize" else ["segment"]
    before = _tree_bytes(tmp_path)
    rc, err = _run([*argv, "--manifest", str(tmp_path / "manifest.json"), "--out-dir", str(tmp_path / out_dir),
                    "--jobs", "1"])
    assert _tree_bytes(tmp_path) == before
    assert (rc, err) == (1, f"error[validation]: --out-dir holds a file the run reads [{links / 'A000_pre.json'}]\n")


def test_normalize_out_dir_may_not_hold_the_model(pipeline, tmp_path):
    """The model is an input too: an --out-dir that holds it is refused, whatever the model's name."""
    norm = tmp_path / "norm"
    norm.mkdir()
    shutil.copy(pipeline / "model.json", norm / "manifest.json")
    rc, err = _run(["normalize", "--manifest", str(pipeline / "seg" / "manifest.json"), "--model",
                    str(norm / "manifest.json"), "--out-dir", str(norm), "--jobs", "1"])
    assert (rc, err) == (1, f"error[validation]: --out-dir holds a file the run reads [{norm / 'manifest.json'}]\n")
    assert (norm / "manifest.json").read_bytes() == (pipeline / "model.json").read_bytes()
    assert [p.name for p in norm.iterdir()] == ["manifest.json"]


def test_train_loads_only_pre_and_the_first_post(pipeline, tmp_path, monkeypatch):
    """The anchors read pre and the first post, so train loads those two volumes per subject, and
    leaves a NaN in a later post to the stages that read it."""
    loaded = []
    load_volume = dcenorm.manifest.load_volume
    monkeypatch.setattr("dcenorm.manifest.load_volume", lambda path: loaded.append(Path(path)) or load_volume(path))
    manifest = pipeline / "seg" / "manifest.json"
    assert main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "model.json"), "--jobs", "1"]) == 0
    assert loaded == [path for entry in load_manifest(manifest) for path in (entry.pre, entry.posts[0])]

    manifest = _damaged_subject(pipeline, tmp_path, "post2", _nan_first_voxel)
    assert _run(["train", "--manifest", str(manifest), "--out", str(tmp_path / "model.json"), "--jobs", "1"]) == (0, "")


# Each case: the argv ({data} and {tmp} filled in at run time), the flag, and the input that flag would replace.
_SINGLE_FILE_OUTPUTS = {
    "features-out": (["features", "--manifest", "{data}/manifest.json", "--out", "{data}/manifest.json"],
                     "--out", "{data}/manifest.json"),
    "train-out": (["train", "--manifest", "{data}/manifest.json", "--out", "{data}/A000_pre.raw"],
                  "--out", "{data}/A000_pre.raw"),
    "train-emit-anchors": (["train", "--manifest", "{data}/manifest.json", "--out", "{tmp}/model.json",
                            "--emit-anchors", "{data}/A000_mask.json"], "--emit-anchors", "{data}/A000_mask.json"),
    "normalize-emit-mapping": (["normalize", "--manifest", "{data}/manifest.json", "--model", "{tmp}/A000_mapping.csv",
                                "--out-dir", "{tmp}/norm", "--emit-mapping", "{tmp}"],
                               "--emit-mapping", "{tmp}/A000_mapping.csv"),
    "evaluate-out": (["evaluate", "--before", "{tmp}/f.csv", "--after", "{tmp}/f.csv", "--manifest",
                      "{data}/manifest.json", "--group-by", "te", "--out", "{data}/manifest.json"],
                     "--out", "{data}/manifest.json"),
    "evaluate-csv-sibling": (["evaluate", "--before", "{tmp}/f.csv", "--after", "{tmp}/f.csv", "--manifest",
                              "{data}/manifest.json", "--group-by", "te", "--out", "{tmp}/f.json"],
                             "--out", "{tmp}/f.csv"),
    "auc-out": (["auc", "--features", "{tmp}/f.csv", "--labels", "{data}/labels.csv", "--out", "{data}/labels.csv"],
                "--out", "{data}/labels.csv"),
}


@pytest.mark.parametrize("case", list(_SINGLE_FILE_OUTPUTS))
def test_single_file_output_may_not_overwrite_an_input(tmp_path, monkeypatch, case):
    """A single-file output that names a file the run reads fails before any subject loads, writing nothing."""
    data = tmp_path / "data"
    generate_phantom(PhantomConfig(dims=(16, 16, 8), groups=(GroupSpec(name="A", n_subjects=1),)), data)
    assert main(["train", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "A000_mapping.csv"),
                 "--jobs", "1"]) == 0
    assert main(["features", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "f.csv"),
                 "--jobs", "1"]) == 0

    _forbid_loading(monkeypatch, "subject loaded before the outputs were checked")
    argv, flag, victim = _SINGLE_FILE_OUTPUTS[case]
    before = _tree_bytes(tmp_path)
    rc, err = _run([a.format(data=data, tmp=tmp_path) for a in argv])
    assert _tree_bytes(tmp_path) == before
    assert rc == 1
    assert err == f"error[validation]: {flag} would overwrite an input file [{victim.format(data=data, tmp=tmp_path)}]\n"


def test_an_output_that_is_not_a_regular_file_is_refused_before_any_subject_loads(tmp_path, monkeypatch):
    """A FIFO at --out: one io line, nothing read, and the FIFO left as it was rather than replaced by a file."""
    data = tmp_path / "data"
    generate_phantom(PhantomConfig(dims=(16, 16, 8), groups=(GroupSpec(name="A", n_subjects=1),)), data)
    fifo = tmp_path / "features.csv"
    os.mkfifo(fifo)
    _forbid_loading(monkeypatch, "subject loaded before the outputs were checked")
    rc, err = _run(["features", "--manifest", str(data / "manifest.json"), "--out", str(fifo), "--jobs", "1"])
    assert (rc, err) == (2, f"error[io]: an output of --out exists and is not a regular file [{fifo}]\n")
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


@pytest.mark.parametrize("command, name", [
    ("segment", "A001_mask.raw"), ("normalize", "A001_pre.raw"), ("normalize", "manifest.json"),
])
def test_an_out_dir_file_that_is_not_a_regular_file_is_refused_before_any_subject_loads(tmp_path, monkeypatch,
                                                                                      command, name):
    """A FIFO where segment or normalize would write a later subject's file, or the manifest: one io line,
    nothing read and nothing written, where the run used to write the first subject and then fail."""
    monkeypatch.chdir(tmp_path)
    generate_phantom(PhantomConfig(dims=(16, 16, 8), groups=(GroupSpec(name="A", n_subjects=2),)), "data")
    assert main(["train", "--manifest", "data/manifest.json", "--out", "model.json", "--jobs", "1"]) == 0
    records = json.loads(Path("data/manifest.json").read_text())
    Path("data/nomask.json").write_text(json.dumps([{k: v for k, v in r.items() if k != "mask"} for r in records]))
    Path("out").mkdir()
    os.mkfifo(Path("out", name))
    _forbid_loading(monkeypatch, "subject loaded before the outputs were checked")
    argv = {
        "segment": ["segment", "--manifest", "data/nomask.json"],
        "normalize": ["normalize", "--manifest", "data/manifest.json", "--model", "model.json"],
    }[command]
    rc, err = _run([*argv, "--out-dir", "out", "--jobs", "1"])
    assert (rc, err) == (2, f"error[io]: an output of --out-dir exists and is not a regular file [out/{name}]\n")
    assert os.listdir("out") == [name]
    assert stat.S_ISFIFO(Path("out", name).lstat().st_mode)


@pytest.mark.parametrize("command", ["train", "normalize"])
def test_a_subject_whose_anchors_tie_stops_train_and_normalize(pipeline, tmp_path, command):
    """A constant pre puts air, fat and dense at one value: train refuses that subject as normalize does,
    with one line, and writes nothing."""
    manifest = _damaged_subject(pipeline, tmp_path, "pre", lambda payload: np.full(len(payload) // 4, 7.0, "<f4").tobytes())
    argv = {
        "train": ["train", "--out", str(tmp_path / "model.json")],
        "normalize": ["normalize", "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path / "norm")],
    }[command]
    before = _tree_bytes(tmp_path)
    rc, err = _run([*argv, "--manifest", str(manifest), "--jobs", "1"])
    assert (rc, err) == (1, "error[validation]: subject A000: tissues 'air' and 'fat' share anchor value 7.0\n")
    assert _tree_bytes(tmp_path) == before


def test_a_model_with_equal_targets_is_refused_before_any_subject_loads(pipeline, tmp_path, monkeypatch):
    """A model whose fat and dense targets are equal would send both tissues to one value."""
    model = json.loads((pipeline / "model.json").read_text())
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(dict(model, m_dense=model["m_fat"])))
    _forbid_loading(monkeypatch, "subject loaded before the model was checked")
    rc, err = _run(["normalize", "--manifest", str(pipeline / "seg" / "manifest.json"), "--model", str(bad),
                    "--out-dir", str(tmp_path / "norm"), "--jobs", "1"])
    assert (rc, err) == (1, f"error[validation]: tissues 'fat' and 'dense' share target value {model['m_fat']} [{bad}]\n")
    assert not (tmp_path / "norm").exists()


@pytest.mark.parametrize("case", ["manifest", "sidecar", "labels"])
def test_text_that_is_not_utf8_is_one_validation_line(tmp_path, monkeypatch, case):
    """A manifest, a sidecar or a labels CSV holding a byte 0xff ends in one line naming the file."""
    monkeypatch.chdir(tmp_path)
    generate_phantom(PhantomConfig(dims=(16, 16, 8), groups=(GroupSpec(name="A", n_subjects=2),)), "data")
    assert main(["features", "--manifest", "data/manifest.json", "--out", "f.csv", "--jobs", "1"]) == 0
    if case == "labels":
        Path("labels.csv").write_bytes(b"subject_id,label\nA000,1\nA\xff01,0\n")
        argv, bad = ["auc", "--features", "f.csv", "--labels", "labels.csv", "--out", "auc.csv"], "labels.csv"
    else:
        bad = "data/manifest.json" if case == "manifest" else "data/A000_pre.json"
        Path(bad).write_bytes(b"\xff" + Path(bad).read_bytes())
        argv = ["train", "--manifest", "data/manifest.json", "--out", "model.json", "--jobs", "1"]
    assert _run(argv) == (1, f"error[validation]: file is not UTF-8 text: byte 0xff cannot be decoded [{bad}]\n")


def test_a_payload_that_is_a_directory_is_an_io_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    generate_phantom(PhantomConfig(dims=(16, 16, 8), groups=(GroupSpec(name="A", n_subjects=1),)), "data")
    payload = Path("data/A000_post1.raw")
    payload.unlink()
    payload.mkdir()
    rc, err = _run(["features", "--manifest", "data/manifest.json", "--out", "f.csv", "--jobs", "1"])
    assert (rc, err) == (2, f"error[io]: volume file is not a regular file [{payload}]\n")


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_outputs_may_not_share_a_file(tmp_path, command):
    """Two outputs of one run that name one file fail before anything is written, though neither exists yet."""
    data = tmp_path / "data"
    groups = (GroupSpec(name="A", n_subjects=2), GroupSpec(name="B", n_subjects=2, te_ms=2.6))
    generate_phantom(PhantomConfig(dims=(16, 16, 8), groups=groups), data)
    manifest = str(data / "manifest.json")
    if command == "train":
        out = tmp_path / "data" / ".." / "model.json"  # another spelling of the --out file
        argv = ["train", "--manifest", manifest, "--out", str(tmp_path / "model.json"), "--emit-anchors", str(out)]
        clash = "--out and --emit-anchors would write the same file"
    else:
        features = tmp_path / "f.csv"
        assert main(["features", "--manifest", manifest, "--out", str(features), "--jobs", "1"]) == 0
        out = tmp_path / "r.csv"  # the JSON report, and the CSV rendering named by its .csv suffix
        argv = ["evaluate", "--before", str(features), "--after", str(features), "--manifest", manifest,
                "--group-by", "te", "--out", str(out)]
        clash = "--out would write two outputs to the same file"
    rc, err = _run(argv)
    assert rc == 1
    assert err == f"error[validation]: {clash} [{out}]\n"
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "r.csv").exists()


def test_archetype_is_a_fixed_point_of_its_model(pipeline):
    """train then normalize leaves the archetype's series unchanged at and above the floor.

    The model's targets are the archetype's own anchors, measured by the same rule in both
    steps, so its map is the identity down to the lower tail's floor, min(0, m_air), bit for bit.
    """
    model = load_model(pipeline / "model.json")
    raw = {e.subject_id: e for e in load_manifest(pipeline / "seg" / "manifest.json")}[model.archetype_subject_id]
    mapped = {e.subject_id: e for e in load_manifest(pipeline / "norm" / "manifest.json")}[model.archetype_subject_id]
    floor = min(0.0, model.m_air)
    for before, after in zip(load_series(raw).volumes, load_series(mapped).volumes):
        kept = before.data >= floor
        assert kept.any()
        assert np.array_equal(after.data[kept].view(np.uint32), before.data[kept].view(np.uint32))


def test_out_dir_may_hold_earlier_outputs(pipeline, tmp_path):
    """Outputs of an earlier run that are not inputs of this one are written over."""
    argv = ["normalize", "--manifest", str(pipeline / "seg" / "manifest.json"), "--model", str(pipeline / "model.json"),
            "--out-dir", str(tmp_path), "--jobs", "1"]
    assert main(argv) == 0
    first = _tree_bytes(tmp_path)
    assert main(argv) == 0
    assert _tree_bytes(tmp_path) == first


def test_walkthrough_with_relative_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("phantom.json").write_text(json.dumps({
        "dims": [32, 32, 12], "groups": [{"name": "A", "n_subjects": 2}],
    }))
    for argv in (
        ["phantom", "--out", "work/data", "--config", "phantom.json"],
        ["segment", "--manifest", "work/data/manifest.json", "--out-dir", "work/masks"],
        ["train", "--manifest", "work/masks/manifest.json", "--out", "work/model.json"],
    ):
        assert main([*argv, "--jobs", "1"]) == 0, argv
    record = json.loads(Path("work/masks/manifest.json").read_text())[0]
    assert record["pre"] == "../data/A000_pre.json"
    assert record["mask"] == "../data/A000_mask.json"


def test_readme_config_example_loads(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(block)
    cfg = load_cli_config(cfg_path)
    assert [f.name for f in dataclasses.fields(cfg)] == ["segmentation", "group_threshold"]
    assert cfg.segmentation.morphology_radius == 2
    assert cfg.group_threshold == 2.0


def _unsegmentable_record(directory: Path) -> dict:
    """Write a flat subject ``c0`` that classical segmentation rejects; return its manifest record."""
    flat = np.full((8, 8, 8), 7.0, dtype=np.float32)
    save_volume(Volume(flat, (1.0, 1.0, 1.0), "dce-pre"), directory / "c0_pre")
    save_volume(Volume(flat * 2, (1.0, 1.0, 1.0), "dce-post1"), directory / "c0_post1")
    return {
        "subject_id": "c0", "pre": str(directory / "c0_pre.json"), "posts": [str(directory / "c0_post1.json")],
        "te_ms": 1.8, "tr_ms": 4.0, "field_t": 1.5,
    }


def _absolute_paths(record: dict, base: Path) -> dict:
    """A manifest record with its volume paths resolved against ``base``, to reuse in another manifest."""
    record = dict(record, pre=str(base / record["pre"]), posts=[str(base / p) for p in record["posts"]])
    if "mask" in record:
        record["mask"] = str(base / record["mask"])
    return record


def _run_process(args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports dcenorm from the same sources as this test."""
    src = str(Path(dcenorm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["dcenorm", "dcenorm.cli"])
def test_import_does_not_load_scipy_ndimage(module):
    """The program needs no scipy.ndimage, so no subcommand's start-up pays for it."""
    done = _run_process(["-c", f"import sys, {module}; sys.exit('scipy.ndimage' in sys.modules)"])
    assert done.returncode == 0, done.stderr or f"importing {module} loaded scipy.ndimage"


def test_segment_copying_masks_does_not_load_scipy_ndimage(pipeline, tmp_path):
    manifest = pipeline / "data" / "manifest.json"
    done = _run_process(["-c", "import sys; from dcenorm.cli import main; "
                               f"rc = main(['segment', '--manifest', {str(manifest)!r}, "
                               f"'--out-dir', {str(tmp_path)!r}, '--jobs', '2']); "
                               "sys.exit(rc or 3 * ('scipy.ndimage' in sys.modules))"])
    assert done.returncode == 0, done.stderr or "segment loaded scipy.ndimage without running it"


def test_segment_runs_without_scipy(pipeline, tmp_path):
    """With scipy unimportable, classical segmentation writes the masks of the fixture's run, byte for byte."""
    manifest = pipeline / "data" / "manifest_nomask.json"
    done = _run_process(["-c", "import sys; sys.modules['scipy'] = None; from dcenorm.cli import main; "
                               f"sys.exit(main(['segment', '--manifest', {str(manifest)!r}, "
                               f"'--out-dir', {str(tmp_path)!r}, '--jobs', '2']))"])
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in tmp_path.glob("*_mask.*"))
    assert len(written) == 2 * len(SUBJECTS)
    assert written == sorted(p.name for p in (pipeline / "seg").glob("*_mask.*"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (pipeline / "seg" / name).read_bytes(), name


def _damaged_subject(pipeline, directory: Path, volume: str, payload, sidecar=None, with_mask=True) -> Path:
    """A one-subject manifest in ``directory`` for the cohort's A000, whose ``volume`` ("pre", "post<k>" or
    "mask") is a copy there with its payload bytes passed through ``payload`` and its sidecar file,
    if given, through ``sidecar``. Returns the manifest's path."""
    data = pipeline / "data"
    record = _absolute_paths(json.loads((data / "manifest.json").read_text())[0], data)
    post = int(volume[4:]) - 1 if volume.startswith("post") else None
    source = Path(record["posts"][post] if post is not None else record[volume])
    copy = directory / f"A000_{volume}"
    (directory / f"{copy.name}.json").write_bytes(source.read_bytes())
    (directory / f"{copy.name}.raw").write_bytes(payload(source.with_suffix(".raw").read_bytes()))
    if sidecar is not None:
        sidecar(directory / f"{copy.name}.json")
    if post is not None:
        record["posts"][post] = f"{copy}.json"
    else:
        record[volume] = f"{copy}.json"
    if not with_mask:
        del record["mask"]
    (directory / "manifest.json").write_text(json.dumps([record]))
    return directory / "manifest.json"


def _nan_first_voxel(payload: bytes) -> bytes:
    values = np.frombuffer(payload, "<f4").copy()
    values[0] = np.nan
    return values.tobytes()


def test_nan_voxel_in_the_last_post_fails_normalize(pipeline, tmp_path):
    """normalize loads each post after the first only when it maps it: a NaN in the last is still one error line
    naming that payload, and no manifest is written."""
    manifest = _damaged_subject(pipeline, tmp_path, "post3", _nan_first_voxel)
    rc, err = _launch(["normalize", "--manifest", str(manifest), "--model", str(pipeline / "model.json"),
                       "--out-dir", str(tmp_path / "norm"), "--jobs", "1"])
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error[validation]: volume contains NaN or infinite values") and "A000_post3.raw" in err
    assert not (tmp_path / "norm" / "manifest.json").exists()


def test_normalize_refuses_a_post_on_another_grid_before_writing_a_volume(pipeline, tmp_path):
    """The grids are checked from the sidecars first, so a last post on another grid stops the subject before
    its pre is mapped."""
    def other_spacing(sidecar: Path):
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), spacing_mm=[1.0, 1.0, 1.0])))

    manifest = _damaged_subject(pipeline, tmp_path, "post3", lambda payload: payload, sidecar=other_spacing)
    rc, err = _launch(["normalize", "--manifest", str(manifest), "--model", str(pipeline / "model.json"),
                       "--out-dir", str(tmp_path / "norm"), "--jobs", "1"])
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error[validation]: subject A000: post3 and pre are on different grids"), err
    assert os.listdir(tmp_path / "norm") == []


def _regridded_cohort(pipeline, directory: Path, volume: str) -> tuple[Path, str]:
    """The fixture's segmented cohort, with A000's ``volume`` ("mask" or "post1") a copy in ``directory`` whose
    sidecar doubles the spacing; a mask copy also holds the illegal label 9. Returns the manifest's path and the
    grid error that the copy should end in."""
    seg = pipeline / "seg"
    records = [_absolute_paths(record, seg) for record in json.loads((seg / "manifest.json").read_text())]
    source = Path(records[0]["mask"] if volume == "mask" else records[0]["posts"][0])
    sidecar = json.loads(source.read_text())
    doubled = [2 * s for s in sidecar["spacing_mm"]]
    copy = directory / f"A000_{volume}"
    (directory / f"{copy.name}.json").write_text(json.dumps(dict(sidecar, spacing_mm=doubled)))
    payload = source.with_suffix(".raw").read_bytes()
    (directory / f"{copy.name}.raw").write_bytes(b"\x09" + payload[1:] if volume == "mask" else payload)
    if volume == "mask":
        records[0]["mask"] = f"{copy}.json"
    else:
        records[0]["posts"][0] = f"{copy}.json"
    (directory / "manifest.json").write_text(json.dumps(records))
    what = "mask and series" if volume == "mask" else "post1 and pre"
    dims, spacing = tuple(sidecar["dims"]), tuple(float(s) for s in sidecar["spacing_mm"])
    grids = f"dims {dims} and {dims}, spacing {tuple(float(s) for s in doubled)} and {spacing}"
    return directory / "manifest.json", f"subject A000: {what} are on different grids: {grids} [{copy}.json]"


@pytest.mark.parametrize("volume", ["mask", "post1"])
@pytest.mark.parametrize("command", ["train", "normalize", "features", "evaluate"])
def test_every_stage_checks_the_grids_it_reads_before_it_loads(pipeline, tmp_path, monkeypatch, command, volume):
    """Each stage reads a subject in one order: the grids from the sidecars, then the mask, then the volumes. So a
    mask or first post on another grid is one error line naming its file, before any payload is read, and a mask's
    illegal label is not reached."""
    manifest, error = _regridded_cohort(pipeline, tmp_path, volume)
    argv = {
        "train": ["train", "--out", str(tmp_path / "model.json"), "--jobs", "1"],
        "normalize": ["normalize", "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path / "norm"),
                      "--jobs", "1"],
        "features": ["features", "--out", str(tmp_path / "f.csv"), "--jobs", "1"],
        "evaluate": ["evaluate", "--before", str(pipeline / "before.csv"), "--after", str(pipeline / "after.csv"),
                     "--group-by", "te", "--out", str(tmp_path / "report.json")],
    }[command]
    _forbid_loading(monkeypatch, "a payload was read before the grids were checked")
    assert _run([*argv, "--manifest", str(manifest)]) == (1, f"error[validation]: {error}\n")


def test_non_string_modality_tag_rejected(pipeline, tmp_path):
    """A sidecar's modality tag is copied into every volume written from it, so it must be a string."""
    def dict_tag(sidecar: Path):
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), modality_tag={"echo": [1, 2]})))

    manifest = _damaged_subject(pipeline, tmp_path, "pre", lambda payload: payload, sidecar=dict_tag)
    rc, err = _launch(["normalize", "--manifest", str(manifest), "--model", str(pipeline / "model.json"),
                       "--out-dir", str(tmp_path / "norm"), "--jobs", "1"])
    sidecar = tmp_path / "A000_pre.json"
    want = f"error[validation]: sidecar modality_tag must be a string, got {{'echo': [1, 2]}} [{sidecar}]\n"
    assert (rc, err) == (1, want)
    assert os.listdir(tmp_path / "norm") == []


def test_streamed_normalize_matches_map_volume_over_the_loaded_series(pipeline):
    """normalize maps and writes one volume at a time; each file equals map_volume over the loaded series."""
    model = load_model(pipeline / "model.json")
    norm = pipeline / "norm"
    for entry in load_manifest(pipeline / "seg" / "manifest.json"):
        series, mask = read_subject(entry)
        mapping = build_mapping(extract_anchors(series, mask), model)
        for k, raw in enumerate(series.volumes):
            volume = map_volume(mapping, raw, entry.subject_id)
            written = subject_file(entry.subject_id, norm, k)
            assert written.with_suffix(".raw").read_bytes() == volume.data.tobytes(), written
            loaded = load_volume(written)
            assert (loaded.spacing_mm, loaded.modality_tag) == (volume.spacing_mm, volume.modality_tag)


def test_normalize_job_holds_the_mask_pre_and_the_first_post_then_one_volume_and_its_map(tmp_path):
    """A job on a 3-post subject lifts the resident set by at most what it holds while it takes the anchors:
    the mask, pre, the first post and the selector's working memory, with the block temporaries of the map and
    1 MiB of small objects on top. All of these go before the volumes are read again, one at a time, each held
    with only its map. The phantom's air is most of its grid, so a job that gathered a tissue's values, formed
    a tissue's voxel set, or held pre's map beside pre and the first post, would cross the bound."""
    dims = (256, 256, 32)
    (entry,) = generate_phantom(PhantomConfig(dims=dims, groups=(GroupSpec("A", 1),)), tmp_path / "job")
    (warm,) = generate_phantom(PhantomConfig(dims=(64, 64, 16), groups=(GroupSpec("A", 1),)), tmp_path / "warm")
    assert len(entry.posts) == 3
    labels = load_mask(entry.mask).labels
    model = train_archetype([extract_anchors(*read_subject(entry))])
    voxels = math.prod(dims)
    largest = max(np.count_nonzero(labels == label) for label in (AIR, FAT, DENSE, HEART))
    assert largest > voxels // 2
    # _kth_smallest's: the sample and a partitioned copy, at most 2 * _SAMPLE float32 values each; one block's
    # float32 values and three flags a value; and the values kept, under 1/16 of the tissue, twice over.
    selection = 2 * 2 * 4 * volume_mod._SAMPLE + (4 + 3) * volume_mod._SCAN_BLOCK + 2 * 4 * largest // 16
    blocks = 6 * 8 * mapping_mod._BLOCK_VOXELS  # evaluate's float64 and intp temporaries on one block
    bound = voxels + 2 * 4 * voxels + selection + blocks + 2**20
    growth = peak_rss_growth(cli._normalize_job, (warm, model, str(tmp_path / "norm0"), None),
                             (entry, model, str(tmp_path / "norm1"), None))
    assert growth <= bound


@pytest.mark.parametrize("radius", [None, 1], ids=["plain", "denoised"])
def test_features_job_holds_the_mask_and_one_volume(tmp_path, radius):
    """A job on a 3-post subject with a tumor peaks at one volume, the mask, its fat and tumor sets and the
    values gathered from them: 4 bytes a fat voxel, and at most 64 a dense or tumor voxel (the flat index,
    three gathered values, the two maps and their float64 temporaries). With a median filter it adds the
    volume's filtered grid and the filter's three copies of the widened box it reads the first post on
    (the input, the padded copy and the output), which holds every other read box. The resident set counts the
    mapped volumes and mask, so a job that held a second volume while it read one would cross the bound."""
    dims = (128, 128, 32)
    (entry,) = generate_phantom(PhantomConfig(dims=dims, groups=(GroupSpec("A", 1),)), tmp_path / "data")
    (warm,) = generate_phantom(PhantomConfig(dims=(64, 64, 16), groups=(GroupSpec("A", 1),)), tmp_path / "warm")
    assert len(entry.posts) == 3
    labels = load_mask(entry.mask).labels
    voxels, fat, kinetic = labels.size, np.count_nonzero(labels == FAT), np.count_nonzero(np.isin(labels, (DENSE, TUMOR)))
    assert np.count_nonzero(labels == TUMOR) > 1
    bound = 4 * voxels + voxels + 2 * voxels + 4 * fat + 64 * kinetic
    if radius is not None:
        read = np.isin(labels, (FAT, DENSE, TUMOR)).nonzero()
        padded = math.prod(int(axis.max() - axis.min()) + 1 + 4 * radius for axis in read)
        bound += 4 * voxels + 3 * 4 * padded
    assert peak_rss_growth(cli._features_job, (warm, radius, False), (entry, radius, False)) <= bound


@pytest.mark.parametrize("with_mask", [True, False], ids=["mask-given", "mask-less"])
def test_segment_leaves_a_nan_voxel_in_post2_to_the_stages_that_read_it(pipeline, tmp_path, with_mask):
    """segment checks post2's sidecar and payload size only; the classical chain reads pre and post1."""
    manifest = _damaged_subject(pipeline, tmp_path, "post2", _nan_first_voxel, with_mask=with_mask)
    rc, err = _launch(["segment", "--manifest", str(manifest), "--out-dir", str(tmp_path / "seg"), "--jobs", "1"])
    assert (rc, err) == (0, "")
    assert [e.subject_id for e in load_manifest(tmp_path / "seg" / "manifest.json")] == ["A000"]


@pytest.mark.parametrize("stage", ["normalize", "features"])
def test_nan_voxel_in_post2_fails_after_segment(pipeline, tmp_path, stage):
    manifest = _damaged_subject(pipeline, tmp_path, "post2", _nan_first_voxel)
    assert main(["segment", "--manifest", str(manifest), "--out-dir", str(tmp_path / "seg"), "--jobs", "1"]) == 0
    argv = {
        "normalize": ["normalize", "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path / "norm")],
        "features": ["features", "--out", str(tmp_path / "f.csv")],
    }[stage]
    rc, err = _launch([*argv, "--manifest", str(tmp_path / "seg" / "manifest.json"), "--jobs", "1"])
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error[validation]: volume contains NaN or infinite values") and "A000_post2.raw" in err


def test_illegal_mask_label_fails_after_segment(pipeline, tmp_path):
    """Mask labels are voxel values too: segment references the mask, train rejects it."""
    manifest = _damaged_subject(pipeline, tmp_path, "mask", lambda payload: b"\x09" + payload[1:])
    assert main(["segment", "--manifest", str(manifest), "--out-dir", str(tmp_path / "seg"), "--jobs", "1"]) == 0
    rc, err = _launch(["train", "--manifest", str(tmp_path / "seg" / "manifest.json"),
                       "--out", str(tmp_path / "model.json"), "--jobs", "1"])
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error[validation]: illegal label value 9") and "A000_mask.raw" in err


@pytest.mark.parametrize("volume, with_mask", [("post2", True), ("post2", False), ("mask", True)],
                         ids=["post2-mask-given", "post2-mask-less", "mask"])
def test_truncated_payload_fails_at_segment(pipeline, tmp_path, volume, with_mask):
    manifest = _damaged_subject(pipeline, tmp_path, volume, lambda payload: payload[:-1], with_mask=with_mask)
    rc, err = _launch(["segment", "--manifest", str(manifest), "--out-dir", str(tmp_path / "seg"), "--jobs", "1"])
    assert rc == 1
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error[validation]: payload is ") and f"A000_{volume}.raw" in err
    assert not (tmp_path / "seg" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["segment", "train", "normalize", "features", "evaluate"])
def test_empty_manifest_rejected_by_every_stage(pipeline, tmp_path, command):
    """No stage runs on a manifest that lists no subjects: none reports a false failure or writes an empty output."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    argv = {
        "segment": ["segment", "--out-dir", str(tmp_path / "seg")],
        "train": ["train", "--out", str(tmp_path / "model.json")],
        "normalize": ["normalize", "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path / "norm")],
        "features": ["features", "--out", str(tmp_path / "f.csv")],
        "evaluate": ["evaluate", "--before", str(pipeline / "before.csv"), "--after", str(pipeline / "after.csv"),
                     "--group-by", "te", "--out", str(tmp_path / "report.json")],
    }[command]
    rc, err = _launch([*argv, "--manifest", str(manifest)])
    assert (rc, err) == (1, f"error[validation]: manifest lists no subjects [{manifest}]\n")
    assert os.listdir(tmp_path) == ["manifest.json"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["train", "normalize"])
def test_a_failing_subject_stops_train_and_normalize(pipeline, tmp_path, command, jobs):
    """train and normalize stop at a subject they cannot map: one line naming it, and no model or manifest.

    normalize may have written other subjects' volumes by then, which ones depending on --jobs."""
    seg = pipeline / "seg"
    records = [_absolute_paths(record, seg) for record in json.loads((seg / "manifest.json").read_text())]
    bad = records[2]
    assert bad["subject_id"] == "A001"
    mask = load_mask(bad["mask"])
    labels = np.where(mask.labels == FAT, 0, mask.labels)
    bad["mask"] = str(save_mask(TissueMask(labels, mask.spacing_mm), tmp_path / "A001_mask"))
    (tmp_path / "manifest.json").write_text(json.dumps(records))
    argv = {
        "train": ["train", "--out", str(tmp_path / "model.json")],
        "normalize": ["normalize", "--model", str(pipeline / "model.json"), "--out-dir", str(tmp_path / "norm")],
    }[command]
    rc, err = _launch([*argv, "--manifest", str(tmp_path / "manifest.json"), "--jobs", jobs])
    assert (rc, err) == (1, "error[validation]: subject A001: tissue 'fat' is empty\n")
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "norm" / "manifest.json").exists()


# ---------------------------------------------------------------------------
# fuzz: one value of a small valid input replaced by a value of another type

TINY_PHANTOM = {
    "dims": [8, 8, 8],
    "spacing_mm": [2.0, 2.0, 4.0],
    "n_posts": 3,
    "intensities": {"air": 0.0, "fat": 400.0, "dense": 200.0, "heart": 300.0, "tumor": 240.0},
    "enhancement": {"fat": [1.05, 1.1, 1.15], "dense": [1.3, 1.45, 1.6], "heart": [3.0, 2.8, 2.6],
                    "tumor_label0": [2.0, 1.9, 1.8], "tumor_label1": [2.4, 2.2, 2.0]},
    "gradient_range": [0.1, 0.55],
    "groups": [{"name": "A", "n_subjects": 1, "scale": 1.0, "offset": 0.0, "te_ms": 1.8,
                "tr_ms": 4.0, "field_t": 1.5, "noise_sigma": 2.0}],
}

CLI_CONFIG = {
    "segmentation": {"air_fraction": 0.05, "heart_enhancement_percentile": 99.0,
                     "dense_polarity": "dark", "min_component_voxels": 500, "morphology_radius": 1},
    "evaluation": {"threshold": 2.0},
}

OTHER_TYPE = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 9) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 9), max_size=2),
    st.floats(),
    st.integers(max_value=-1),
)


def _positions(doc, prefix=()):
    """Key paths of every value in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _positions(value, (*prefix, key))


def _replace(doc, position, value):
    if not position:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in position[:-1]:
        target = target[key]
    target[position[-1]] = value
    return doc


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A one-subject 8x8x8 phantom, whose files the fuzz mutates."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    (root / "phantom.json").write_text(json.dumps(TINY_PHANTOM))
    assert main(["phantom", "--config", str(root / "phantom.json"), "--out", str(root / "data"), "--jobs", "1"]) == 0
    return root


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _launch(argv):
    """``_run`` in a fresh ``python -m dcenorm`` process, whose stderr also holds any logging or warning."""
    done = _run_process(["-m", "dcenorm", *argv])
    return done.returncode, done.stderr


def _fuzz_phantom(tiny, doc, work, launch=_run):
    (work / "phantom.json").write_text(json.dumps(doc))
    return launch(["phantom", "--config", str(work / "phantom.json"), "--out", str(work / "data"),
                   "--jobs", "1"])


def _fuzz_cli_config(tiny, doc, work, launch=_run):
    (work / "config.json").write_text(json.dumps(doc))
    return launch(["segment", "--manifest", str(tiny / "data" / "manifest.json"), "--out-dir", str(work / "seg"),
                   "--config", str(work / "config.json"), "--jobs", "1"])


def _fuzz_manifest(tiny, doc, work, launch=_run):
    manifest = tiny / "data" / "fuzzed_manifest.json"
    manifest.write_text(json.dumps([doc]))
    return launch(["features", "--manifest", str(manifest), "--out", str(work / "f.csv"), "--jobs", "1"])


def _fuzz_sidecar(tiny, doc, work, launch=_run):
    sidecar = tiny / "data" / "A000_pre.json"
    original = sidecar.read_text()
    sidecar.write_text(json.dumps(doc))
    try:
        return launch(["features", "--manifest", str(tiny / "data" / "manifest.json"),
                       "--out", str(work / "f.csv"), "--jobs", "1"])
    finally:
        sidecar.write_text(original)


FUZZ_KINDS = {
    "phantom-config": (_fuzz_phantom, lambda tiny: TINY_PHANTOM),
    "cli-config": (_fuzz_cli_config, lambda tiny: CLI_CONFIG),
    "manifest-record": (_fuzz_manifest,
                        lambda tiny: json.loads((tiny / "data" / "manifest.json").read_text())[0]),
    "volume-sidecar": (_fuzz_sidecar,
                       lambda tiny: json.loads((tiny / "data" / "A000_pre.json").read_text())),
}


@pytest.mark.parametrize("kind", list(FUZZ_KINDS))
def test_fuzzed_inputs_keep_the_exit_contract(tiny, kind):
    """Exit 0, 1 or 2; a failure prints exactly one ``error[...]`` line."""
    run, valid = FUZZ_KINDS[kind]
    doc = valid(tiny)
    assert run(tiny, doc, Path(tempfile.mkdtemp(dir=tiny)))[0] == 0

    @settings(max_examples=30)
    @given(position=st.sampled_from(list(_positions(doc))), value=OTHER_TYPE)
    def check(position, value):
        with tempfile.TemporaryDirectory(dir=tiny) as work:
            rc, err = run(tiny, _replace(doc, position, value), Path(work))
        assert rc in (0, 1, 2)
        if rc:
            assert len(err.splitlines()) == 1 and err.startswith("error["), err

    check()


# Fixed malformed examples per kind, run through a real process: the
# in-process fuzz above cannot see logging or warnings on stderr.
PROCESS_CASES = [
    ("phantom-config", ("groups", 0), {}),
    ("phantom-config", ("intensities", "fat"), 1e308),
    ("cli-config", ("segmentation",), []),
    ("cli-config", ("evaluation", "threshold"), math.nan),
    ("manifest-record", ("label",), True),
    ("manifest-record", (), [1]),
    ("volume-sidecar", ("spacing_mm", 0), 10 ** 400),
    ("volume-sidecar", ("dims",), [8, 8]),
]


@pytest.mark.parametrize("kind, position, value", PROCESS_CASES,
                         ids=[f"{kind}-{'.'.join(map(str, pos)) or 'root'}" for kind, pos, _ in PROCESS_CASES])
def test_malformed_inputs_keep_the_exit_contract_in_a_process(tiny, tmp_path, kind, position, value):
    run, valid = FUZZ_KINDS[kind]
    rc, err = run(tiny, _replace(valid(tiny), position, value), tmp_path, launch=_launch)
    assert rc in (1, 2)
    assert len(err.splitlines()) == 1 and err.startswith("error["), err
