import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dcenorm import (
    MaskError,
    ManifestError,
    MissingInputError,
    NonFiniteDataError,
    StudySeries,
    SubjectEntry,
    TissueMask,
    ValidationError,
    VolumeFormatError,
    load_manifest,
    load_series,
    save_mask,
    save_volume,
)
from dcenorm.manifest import (
    check_subject_grids, read_labels_csv, save_labels, save_manifest, save_subject, subject_file,
)

from helpers import mask_of, series_of, vol


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
        assert [e.subject_id for e in manifest] == ["s1", "s2"]
        first = manifest[0]
        assert first.pre == dataset / "pre"
        assert first.posts == (dataset / "post1", dataset / "post2")
        assert first.label is None
        assert manifest[1].label == 1

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
        assert manifest[0].pre.parent == sub

    def test_mask_path_recorded_and_checked(self, dataset):
        path = write_manifest(dataset, [record("s1", mask="nope")])
        with pytest.raises(MissingInputError):
            load_manifest(path)

    def test_dotted_subject_id_finds_its_files(self, tmp_path):
        write_volumes(tmp_path, ["A.1_pre", "A.1_post1"])
        manifest = load_manifest(write_manifest(tmp_path, [
            record("A.1", pre="A.1_pre.json", posts=["A.1_post1.json"]),
        ]))
        series = load_series(manifest[0])
        assert series.pre.data.max() == 0.0
        assert series.posts[0].data.max() == 1.0


class TestLoadSeries:
    def test_loads_all_volumes(self, dataset):
        manifest = load_manifest(
            write_manifest(dataset, [record("s1", posts=["post1", "post2"])])
        )
        series = load_series(manifest[0])
        assert series.subject_id == "s1"
        assert len(series.posts) == 2
        assert series.dims == (2, 2, 1)
        assert series.volumes == (series.pre, *series.posts)
        assert manifest[0].te_ms == 1.8

    def test_rejects_dims_mismatch(self, tmp_path):
        save_volume(vol(np.zeros((1, 2, 2))), tmp_path / "pre")
        save_volume(vol(np.zeros((1, 2, 3))), tmp_path / "post1")
        manifest = load_manifest(write_manifest(tmp_path, [record("s1")]))
        with pytest.raises(ValidationError, match="post1 and pre are on different grids"):
            load_series(manifest[0])

    def test_rejects_spacing_mismatch(self, tmp_path):
        save_volume(vol(np.zeros((1, 2, 2))), tmp_path / "pre")
        save_volume(vol(np.zeros((1, 2, 2)), spacing=(2, 2, 2)), tmp_path / "post1")
        manifest = load_manifest(write_manifest(tmp_path, [record("s1")]))
        with pytest.raises(ValidationError):
            load_series(manifest[0])

    def test_series_needs_a_post_volume(self):
        v = vol(np.zeros((1, 1, 1)))
        with pytest.raises(ValidationError):
            StudySeries("s1", v, ())


class TestCheckSubjectGrids:
    def entry(self, directory, **extra):
        return load_manifest(write_manifest(directory, [record("s1", posts=["post1", "post2"], **extra)]))[0]

    def test_voxel_values_are_left_to_the_loaders(self, dataset):
        (dataset / "post2.raw").write_bytes(np.full(4, np.nan, "<f4").tobytes())
        entry = self.entry(dataset)
        check_subject_grids(entry)
        with pytest.raises(NonFiniteDataError):
            load_series(entry)

    def test_payload_size_checked(self, dataset):
        (dataset / "post2.raw").write_bytes(bytes(12))
        with pytest.raises(VolumeFormatError, match="12 bytes"):
            check_subject_grids(self.entry(dataset))

    def test_series_grids_must_agree(self, dataset):
        save_volume(vol(np.zeros((1, 2, 2)), spacing=(2, 2, 2)), dataset / "post2")
        with pytest.raises(ValidationError, match="post2 and pre are on different grids"):
            check_subject_grids(self.entry(dataset))

    @pytest.mark.parametrize("shape, spacing, message", [
        ((1, 2, 3), (1.0, 1.0, 1.0), "mask and series are on different grids"),
        ((1, 2, 2), (1.0, 1.0, 3.0), "mask and series are on different grids"),
    ])
    def test_mask_grid_must_match(self, dataset, shape, spacing, message):
        save_mask(TissueMask(np.zeros(shape, np.uint8), spacing), dataset / "mask")
        with pytest.raises(MaskError, match=message) as info:
            check_subject_grids(self.entry(dataset, mask="mask"))
        assert str(dataset / "mask") in str(info.value)


@pytest.mark.parametrize("subject_id", [
    "../escaped/A0", "a/b", "a\\b", "B,0", 'a"b', "a\nb", "a\tb", "a\x00b", "a\x7fb", "a\x85b",
])
def test_unsafe_subject_id_rejected(dataset, subject_id):
    path = write_manifest(dataset, [record("s1"), record(subject_id)])
    with pytest.raises(ManifestError, match=r"^entry 1: subject_id .* may not contain") as info:
        load_manifest(path)
    assert str(info.value).endswith(f"[{path}]")


@pytest.mark.parametrize("subject_id", ["A.1", "a b", "A-0_x", "..", "é1"])
def test_safe_subject_id_accepted(dataset, subject_id):
    assert load_manifest(write_manifest(dataset, [record(subject_id)]))[0].subject_id == subject_id


def test_entry_errors_name_the_manifest(dataset):
    path = write_manifest(dataset, [record("s1", label=2)])
    with pytest.raises(ManifestError, match="label") as info:
        load_manifest(path)
    assert str(info.value).endswith(f"[{path}]")


def resolved(entry):
    """``entry`` with every path resolved, so ``data/x`` and ``out/../data/x`` compare equal."""
    mask = entry.mask.resolve() if entry.mask is not None else None
    return dataclasses.replace(
        entry, pre=entry.pre.resolve(), posts=tuple(p.resolve() for p in entry.posts), mask=mask
    )


class TestSaveDataset:
    def subjects(self, data):
        """Two subjects written by ``save_subject``: A.1 with a mask and a label, B with neither."""
        a = save_subject(
            SubjectEntry("A.1", Path(), (), 1.8, 4.0, 1.5, label=1),
            data,
            series_of(np.zeros((1, 2, 2)), [np.ones((1, 2, 2)), np.full((1, 2, 2), 2.0)], "A.1").volumes,
            mask_of(np.full((1, 2, 2), 2)),
        )
        b_series = series_of(np.zeros((1, 2, 2)), [np.ones((1, 2, 2))], "B")
        b = save_subject(SubjectEntry("B", Path(), (), 2.6, 5.2, 3.0), data, b_series.volumes)
        return a, b

    def test_save_subject_names_the_files_it_writes(self, tmp_path):
        a, b = self.subjects(tmp_path)
        assert (a.pre, *a.posts, a.mask) == tuple(subject_file("A.1", tmp_path, k) for k in (0, 1, 2, None))
        assert [p.name for p in (a.pre, *a.posts, a.mask)] == [
            "A.1_pre.json", "A.1_post1.json", "A.1_post2.json", "A.1_mask.json"
        ]
        assert b.mask is None and not (tmp_path / "B_mask.json").exists()
        assert load_series(b).posts[0].data.max() == 1.0

    def test_save_subject_writes_only_what_it_is_given(self, tmp_path):
        a, _ = self.subjects(tmp_path / "data")
        masked = save_subject(a, tmp_path / "masks", mask=mask_of(np.full((1, 2, 2), 3)))
        assert masked == dataclasses.replace(a, mask=tmp_path / "masks" / "A.1_mask.json")
        assert sorted(p.name for p in (tmp_path / "masks").iterdir()) == ["A.1_mask.json", "A.1_mask.raw"]

    def test_manifest_round_trip_from_another_directory(self, tmp_path):
        entries = self.subjects(tmp_path / "data")
        path = save_manifest(tmp_path / "out", entries)
        assert path == tmp_path / "out" / "manifest.json"
        records = json.loads(path.read_text())
        assert [list(r) for r in records] == [
            ["subject_id", "pre", "posts", "mask", "te_ms", "tr_ms", "field_t", "label"],
            ["subject_id", "pre", "posts", "te_ms", "tr_ms", "field_t"],
        ]
        assert records[0]["pre"] == "../data/A.1_pre.json"
        assert records[0]["posts"] == ["../data/A.1_post1.json", "../data/A.1_post2.json"]
        assert records[0]["mask"] == "../data/A.1_mask.json"
        assert [resolved(e) for e in load_manifest(path)] == [resolved(e) for e in entries]

    def test_manifest_round_trip_in_its_own_directory(self, tmp_path):
        entries = self.subjects(tmp_path)
        path = save_manifest(tmp_path, entries)
        assert json.loads(path.read_text())[1]["posts"] == ["B_post1.json"]
        assert load_manifest(path) == entries

    def test_values_are_written_as_the_entry_holds_them(self, tmp_path):
        write_volumes(tmp_path, ["pre", "post1"])
        entry = SubjectEntry("s1", tmp_path / "pre", (tmp_path / "post1",), 2, 5, 3.0, label=0)
        text = save_manifest(tmp_path, [entry]).read_text()
        assert '"te_ms": 2,' in text and '"tr_ms": 5,' in text and '"field_t": 3.0,' in text
        assert '"pre": "pre",' in text

    def test_labels_round_trip(self, tmp_path):
        entries = [SubjectEntry(sid, Path(), (), 1.0, 1.0, 1.0, label=label) for sid, label in (("A.1", 1), ("B", 0))]
        save_labels(tmp_path, entries)
        path = tmp_path / "labels.csv"
        assert path.read_text() == "subject_id,label\nA.1,1\nB,0\n"
        assert read_labels_csv(path) == {"A.1": 1, "B": 0}
