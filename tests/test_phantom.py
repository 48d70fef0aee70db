import json

import numpy as np
import pytest

from dcenorm import ConfigError, GroupSpec, PhantomConfig, generate_phantom, load_mask, load_series
from dcenorm.phantom import phantom_config_from_json, phantom_mask


def small_config(**overrides):
    kwargs = dict(
        dims=(16, 16, 8),
        spacing_mm=(2.0, 2.0, 4.0),
        groups=(
            GroupSpec(name="A", n_subjects=2, noise_sigma=2.0),
            GroupSpec(name="B", n_subjects=2, scale=1.5, offset=50.0, te_ms=2.6, noise_sigma=2.0),
        ),
    )
    kwargs.update(overrides)
    return PhantomConfig(**kwargs)


def dataset_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


def mask_count_oracle(dims):
    """Rasterize the fixed anatomy on full coordinate grids.

    Restates the ellipsoid layout directly: center and semi-axis as
    fractions of (nx, ny, nz), with later tissues overwriting earlier
    ones.
    """
    nx, ny, nz = dims
    zz, yy, xx = np.indices((nz, ny, nx), dtype=np.float64)

    def inside(center, semi):
        cx, cy, cz = center
        ax, ay, az = semi
        return (
            ((xx - cx * nx) / (ax * nx)) ** 2
            + ((yy - cy * ny) / (ay * ny)) ** 2
            + ((zz - cz * nz) / (az * nz)) ** 2
        ) <= 1.0

    labels = np.ones((nz, ny, nx), dtype=np.uint8)  # air
    labels[inside((0.5, 0.28125, 0.5), (0.375, 0.203125, 0.375))] = 2   # fat
    labels[inside((0.5, 0.25, 0.5), (0.15625, 0.09375, 5 / 24))] = 3    # dense
    labels[inside((0.40625, 0.25, 0.5), (0.05, 0.05, 3.2 / 24))] = 5    # tumor
    labels[inside((0.5, 0.71875, 0.5), (0.09375, 0.09375, 0.25))] = 4   # heart
    return labels


class TestPhantomMask:
    def test_matches_rasterization_oracle(self):
        mask = phantom_mask((64, 64, 24), (2.0, 2.0, 4.0))
        assert np.array_equal(mask.labels, mask_count_oracle((64, 64, 24)))

    def test_default_grid_counts_frozen(self):
        counts = phantom_mask((64, 64, 24), (2.0, 2.0, 4.0)).counts()
        assert counts == {
            "background": 0,
            "air": 85646,
            "fat": 10486,
            "dense": 1100,
            "heart": 925,
            "tumor": 147,
        }

    def test_every_tissue_present_on_small_grid(self):
        counts = phantom_mask((16, 16, 8), (2.0, 2.0, 4.0)).counts()
        for name in ("air", "fat", "dense", "heart", "tumor"):
            assert counts[name] > 0, name


class TestGeneration:
    def test_byte_identical_across_runs_and_jobs(self, tmp_path):
        cfg = small_config()
        generate_phantom(cfg, tmp_path / "one", jobs=1)
        generate_phantom(cfg, tmp_path / "two", jobs=3)
        assert dataset_bytes(tmp_path / "one") == dataset_bytes(tmp_path / "two")

    def test_seed_changes_payloads(self, tmp_path):
        generate_phantom(small_config(), tmp_path / "one", jobs=1)
        generate_phantom(small_config(seed=1), tmp_path / "other", jobs=1)
        a = (tmp_path / "one" / "A000_pre.raw").read_bytes()
        b = (tmp_path / "other" / "A000_pre.raw").read_bytes()
        assert a != b

    def test_manifest_interleaves_groups(self, tmp_path):
        manifest = generate_phantom(small_config(), tmp_path / "d", jobs=1)
        assert [e.subject_id for e in manifest] == ["A000", "B000", "A001", "B001"]

    def test_uneven_groups_interleave_by_prefix(self, tmp_path):
        cfg = small_config(
            groups=(
                GroupSpec(name="A", n_subjects=3),
                GroupSpec(name="B", n_subjects=1, te_ms=2.6),
            )
        )
        manifest = generate_phantom(cfg, tmp_path / "d", jobs=1)
        assert [e.subject_id for e in manifest] == ["A000", "B000", "A001", "A002"]

    def test_labels_file_matches_manifest(self, tmp_path):
        manifest = generate_phantom(small_config(), tmp_path / "d", jobs=1)
        lines = (tmp_path / "d" / "labels.csv").read_text().strip().splitlines()
        assert lines[0] == "subject_id,label"
        parsed = dict(line.split(",") for line in lines[1:])
        for entry in manifest:
            anatomy = int(entry.subject_id[1:])
            assert entry.label == anatomy % 2
            assert parsed[entry.subject_id] == str(entry.label)

    def test_integer_config_values_keep_their_spelling(self, tmp_path):
        """The manifest writes the group's values as configured: an integer stays an integer."""
        cfg = small_config(groups=(GroupSpec(name="A", n_subjects=1, te_ms=2, tr_ms=5, field_t=3),))
        generate_phantom(cfg, tmp_path / "d", jobs=1)
        text = (tmp_path / "d" / "manifest.json").read_text()
        assert '"te_ms": 2,' in text and '"tr_ms": 5,' in text and '"field_t": 3,' in text

    def test_every_subject_has_mask_and_posts(self, tmp_path):
        manifest = generate_phantom(small_config(), tmp_path / "d", jobs=1)
        assert len(manifest) == 4
        for entry in manifest:
            assert entry.mask is not None
            assert len(entry.posts) == 3
            mask = load_mask(entry.mask)
            assert mask.dims == (16, 16, 8)

    def test_noise_free_identity_group_reproduces_bases(self, tmp_path):
        config_file = tmp_path / "cfg.json"
        config_file.write_text(json.dumps({
            "dims": [16, 16, 8],
            "groups": [{"name": "A", "n_subjects": 1, "noise_sigma": 0.0}],
            "enhancement": {"fat": [1.0, 1.0, 1.0]},
            "gradient_range": [0.0, 0.0],
        }))
        cfg = phantom_config_from_json(config_file)
        manifest = generate_phantom(cfg, tmp_path / "d", jobs=1)
        entry = manifest[0]
        series = load_series(entry)
        mask = load_mask(entry.mask)
        fat = mask.tissue(2)
        assert np.all(series.pre.data[fat] == 400.0)
        for post in series.posts:
            assert np.all(post.data[fat] == 400.0)
        # the other tissues keep their configured enhancement factors
        assert np.all(series.pre.data[mask.tissue(3)] == 200.0)
        assert np.all(series.posts[0].data[mask.tissue(3)] == 200.0 * 1.3)
        assert np.all(series.posts[0].data[mask.tissue(4)] == 300.0 * 3.0)
        assert np.all(series.posts[0].data[mask.tissue(5)] == 240.0 * 2.0)
        assert np.all(series.pre.data[mask.tissue(1)] == 0.0)

    def test_scale_only_group_shifts_fat_mean_by_factor(self, tmp_path):
        cfg = small_config(
            groups=(
                GroupSpec(name="A", n_subjects=3),
                GroupSpec(name="B", n_subjects=3, scale=1.5, te_ms=2.6),
            )
        )
        manifest = generate_phantom(cfg, tmp_path / "d", jobs=1)
        means = {"A": [], "B": []}
        for entry in manifest:
            series = load_series(entry)
            fat = load_mask(entry.mask).tissue(2)
            means[entry.subject_id[0]].append(float(series.pre.data[fat].mean()))
        ratio = np.mean(means["B"]) / np.mean(means["A"])
        assert ratio == pytest.approx(1.5, rel=0.01)

    def test_matched_subjects_differ_by_group_affine_only(self, phantom_dataset):
        _, manifest = phantom_dataset
        entries = {e.subject_id: e for e in manifest}
        a = load_series(entries["A007"])
        b = load_series(entries["B007"])
        assert entries["B007"].te_ms == 2.6 and entries["A007"].te_ms == 1.8
        for va, vb in zip(a.volumes, b.volumes):
            expected = va.data.astype(np.float64) * 1.5 + 50.0
            assert np.allclose(vb.data, expected, rtol=1e-5, atol=0.05)

    def test_distinct_anatomies_are_not_affine_twins(self, phantom_dataset):
        _, manifest = phantom_dataset
        entries = {e.subject_id: e for e in manifest}
        a0 = load_series(entries["A000"]).pre.data
        a1 = load_series(entries["A001"]).pre.data
        assert not np.allclose(a0, a1, atol=0.5)


class TestPhantomConfig:
    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"frobnicate": 1}')
        with pytest.raises(ConfigError, match="frobnicate"):
            phantom_config_from_json(path)

    def test_unknown_enhancement_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"enhancement": {"bone": [1, 1, 1]}}')
        with pytest.raises(ConfigError, match="bone"):
            phantom_config_from_json(path)

    def test_partial_enhancement_merges_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"enhancement": {"fat": [1.0, 1.0, 1.0]}}')
        cfg = phantom_config_from_json(path)
        assert cfg.enhancement["fat"] == (1.0, 1.0, 1.0)
        assert cfg.enhancement["dense"] == (1.3, 1.45, 1.6)

    def test_unknown_group_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"groups": [{"name": "A", "n_subjects": 1, "vendor": "x"}]}')
        with pytest.raises(ConfigError, match="vendor"):
            phantom_config_from_json(path)

    def test_small_dims_rejected(self):
        with pytest.raises(ConfigError, match="dims"):
            small_config(dims=(4, 16, 8))

    def test_enhancement_must_cover_posts(self):
        with pytest.raises(ConfigError, match="need 4"):
            small_config(n_posts=4)

    def test_duplicate_group_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            small_config(groups=(GroupSpec("A", 1), GroupSpec("A", 1)))

    def test_group_validation(self):
        with pytest.raises(ConfigError):
            GroupSpec(name="", n_subjects=1)
        with pytest.raises(ConfigError):
            GroupSpec(name="A", n_subjects=0)
        with pytest.raises(ConfigError):
            GroupSpec(name="A", n_subjects=1, scale=0.0)
        with pytest.raises(ConfigError):
            GroupSpec(name="A", n_subjects=1, noise_sigma=-1.0)

    def test_gradient_range_ordering_enforced(self):
        with pytest.raises(ConfigError, match="gradient_range"):
            small_config(gradient_range=(0.5, 0.1))
