import json
import math

import numpy as np
import pytest

from dcenorm import (
    ManifestError,
    MissingInputError,
    StudySeries,
    ValidationError,
    load_manifest,
    load_series,
    save_volume,
)

from helpers import vol


def write_volumes(directory, names, shape=(1, 2, 2)):
    for i, name in enumerate(names):
        save_volume(vol(np.full(shape, float(i))), directory / name)


def record(sid, pre="pre", posts=("post1",), **extra):
    rec = {
        "subject_id": sid,
        "pre": pre,
        "posts": list(posts),
        "te_ms": 1.8,
        "tr_ms": 4.0,
        "field_t": 1.5,
    }
    rec.update(extra)
    return rec


def write_manifest(directory, records, name="manifest.json"):
    path = directory / name
    path.write_text(json.dumps(records))
    return path


@pytest.fixture
def dataset(tmp_path):
    write_volumes(tmp_path, ["pre", "post1", "post2"])
    return tmp_path


class TestLoadManifest:
    def test_two_subjects(self, dataset):
        path = write_manifest(dataset, [
            record("s1", posts=["post1", "post2"]),
            record("s2", posts=["post1"], label=1),
        ])
        manifest = load_manifest(path)
        assert len(manifest) == 2
        assert manifest.subject_ids() == ["s1", "s2"]
        first = manifest.entries[0]
        assert first.pre == dataset / "pre"
        assert first.posts == (dataset / "post1", dataset / "post2")
        assert first.label is None
        assert manifest.entries[1].label == 1

    def test_duplicate_subject_id_named(self, dataset):
        path = write_manifest(dataset, [record("twin"), record("twin")])
        with pytest.raises(ManifestError, match="twin"):
            load_manifest(path)

    def test_missing_required_key(self, dataset):
        rec = record("s1")
        del rec["te_ms"]
        with pytest.raises(ManifestError, match="te_ms"):
            load_manifest(write_manifest(dataset, [rec]))

    def test_unknown_key_named(self, dataset):
        path = write_manifest(dataset, [record("s1", flavor="vanilla")])
        with pytest.raises(ManifestError, match="flavor"):
            load_manifest(path)

    def test_empty_subject_id(self, dataset):
        with pytest.raises(ManifestError, match="subject_id"):
            load_manifest(write_manifest(dataset, [record("")]))

    def test_posts_must_be_non_empty(self, dataset):
        with pytest.raises(ManifestError, match="posts"):
            load_manifest(write_manifest(dataset, [record("s1", posts=[])]))

    @pytest.mark.parametrize("key", ["te_ms", "tr_ms", "field_t"])
    @pytest.mark.parametrize("bad", [0, -1.5, "3", True, math.nan, math.inf,
                                     pytest.param(10 ** 400, id="huge-int")])
    def test_acquisition_params_must_be_positive_numbers(self, dataset, key, bad):
        rec = record("s1")
        rec[key] = bad
        with pytest.raises(ManifestError, match=key):
            load_manifest(write_manifest(dataset, [rec]))

    @pytest.mark.parametrize("label", [2, True, 1.0])
    def test_label_must_be_binary(self, dataset, label):
        with pytest.raises(ManifestError, match="label"):
            load_manifest(write_manifest(dataset, [record("s1", label=label)]))

    def test_missing_referenced_file(self, dataset):
        path = write_manifest(dataset, [record("s1", posts=["absent"])])
        with pytest.raises(MissingInputError, match="s1"):
            load_manifest(path)

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text('[\n  {"subject_id": "s1",}\n]')
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(bad)

    def test_top_level_must_be_array(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"subjects": []}')
        with pytest.raises(ManifestError, match="array"):
            load_manifest(path)

    def test_entry_must_be_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[42]")
        with pytest.raises(ManifestError, match="entry 0"):
            load_manifest(path)

    def test_paths_resolve_relative_to_manifest_dir(self, tmp_path):
        sub = tmp_path / "cohort"
        sub.mkdir()
        write_volumes(sub, ["pre", "post1"])
        path = write_manifest(sub, [record("s1")])
        manifest = load_manifest(path)
        assert manifest.entries[0].pre.parent == sub

    def test_mask_path_recorded_and_checked(self, dataset):
        path = write_manifest(dataset, [record("s1", mask="nope")])
        with pytest.raises(MissingInputError):
            load_manifest(path)

    def test_get_unknown_subject(self, dataset):
        manifest = load_manifest(write_manifest(dataset, [record("s1")]))
        assert manifest.get("s1").subject_id == "s1"
        with pytest.raises(ManifestError):
            manifest.get("s9")

    def test_dotted_subject_id_finds_its_files(self, tmp_path):
        write_volumes(tmp_path, ["A.1_pre", "A.1_post1"])
        manifest = load_manifest(write_manifest(tmp_path, [
            record("A.1", pre="A.1_pre.json", posts=["A.1_post1.json"]),
        ]))
        series = load_series(manifest.get("A.1"))
        assert series.pre.data.max() == 0.0
        assert series.posts[0].data.max() == 1.0


class TestLoadSeries:
    def test_loads_all_volumes(self, dataset):
        manifest = load_manifest(
            write_manifest(dataset, [record("s1", posts=["post1", "post2"])])
        )
        series = load_series(manifest.entries[0])
        assert series.subject_id == "s1"
        assert len(series.posts) == 2
        assert series.dims == (2, 2, 1)
        assert series.volumes == (series.pre, *series.posts)
        assert series.te_ms == 1.8

    def test_rejects_dims_mismatch(self, tmp_path):
        save_volume(vol(np.zeros((1, 2, 2))), tmp_path / "pre")
        save_volume(vol(np.zeros((1, 2, 3))), tmp_path / "post1")
        manifest = load_manifest(write_manifest(tmp_path, [record("s1")]))
        with pytest.raises(ValidationError, match="dims or spacing"):
            load_series(manifest.entries[0])

    def test_rejects_spacing_mismatch(self, tmp_path):
        save_volume(vol(np.zeros((1, 2, 2))), tmp_path / "pre")
        save_volume(vol(np.zeros((1, 2, 2)), spacing=(2, 2, 2)), tmp_path / "post1")
        manifest = load_manifest(write_manifest(tmp_path, [record("s1")]))
        with pytest.raises(ValidationError):
            load_series(manifest.entries[0])

    def test_series_needs_a_post_volume(self):
        v = vol(np.zeros((1, 1, 1)))
        with pytest.raises(ValidationError):
            StudySeries("s1", v, (), 1.8, 4.0, 1.5)
