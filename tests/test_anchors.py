import math

import numpy as np
import pytest

from dcenorm import AnchorSet, SubjectError, ValidationError, extract_anchors

from helpers import anchor_set, labeled_scene, mask_of, series_of, vol


def scene_series(rng, shape=(4, 6, 8), scale=1.0):
    """Series plus mask where every tissue block has known random values."""
    labels = labeled_scene(shape, tumor=False)
    pre = rng.uniform(0, 100, size=shape).astype(np.float32) * scale
    post = rng.uniform(100, 300, size=shape).astype(np.float32) * scale
    return series_of(pre, [post]), mask_of(labels), pre, post


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100.0) - 1, 0)]


class TestExtractAnchors:
    def test_fat_anchor_is_median_of_pre(self):
        labels = np.array([[[1, 2, 2, 2, 3, 4]]], dtype=np.uint8)
        pre = np.array([[[0, 10, 20, 30, 40, 50]]], dtype=np.float32)
        post = pre + 100
        anchors = extract_anchors(series_of(pre, [post, post]), mask_of(labels))
        assert anchors.v_fat == 20.0

    def test_heart_anchor_is_p90_of_first_post(self):
        labels = np.full((1, 1, 10), 4, dtype=np.uint8)
        labels[0, 0, 0] = 1
        labels[0, 0, 1] = 2
        labels[0, 0, 2] = 3
        pre = np.zeros((1, 1, 10), dtype=np.float32)
        post1 = np.arange(1, 11, dtype=np.float32).reshape(1, 1, 10)
        post2 = np.full((1, 1, 10), 500, dtype=np.float32)
        anchors = extract_anchors(series_of(pre, [post1, post2]), mask_of(labels))
        # heart voxels hold {4..10}; nearest-rank p90 of 7 values is the 7th
        assert anchors.v_heart == 10.0

    def test_heart_ten_values_p90(self):
        labels = np.full((1, 1, 13), 4, dtype=np.uint8)
        labels[0, 0, :3] = [1, 2, 3]
        pre = np.zeros((1, 1, 13), dtype=np.float32)
        post = np.concatenate([[0, 0, 0], np.arange(1, 11)]).astype(np.float32)
        anchors = extract_anchors(
            series_of(pre, [post.reshape(1, 1, 13)]), mask_of(labels)
        )
        assert anchors.v_heart == 9.0

    def test_matches_sort_oracle(self, rng):
        for _ in range(30):
            series, mask, pre, post = scene_series(rng)
            anchors = extract_anchors(series, mask)
            assert anchors.v_air == nearest_rank(pre[mask.tissue(1)], 50)
            assert anchors.v_fat == nearest_rank(pre[mask.tissue(2)], 50)
            assert anchors.v_dense == nearest_rank(pre[mask.tissue(3)], 50)
            assert anchors.v_heart == nearest_rank(post[mask.tissue(4)], 90)

    def test_scale_equivariance(self, rng):
        # powers of two keep float32 scaling exact
        for scale in (2.0, 0.25):
            base_rng = np.random.default_rng(7)
            series, mask, _, _ = scene_series(base_rng)
            scaled_rng = np.random.default_rng(7)
            scaled, _, _, _ = scene_series(scaled_rng, scale=scale)
            a = extract_anchors(series, mask)
            b = extract_anchors(scaled, mask)
            for tissue in ("air", "fat", "dense", "heart"):
                assert b.values()[tissue] == scale * a.values()[tissue]

    def test_voxel_order_invariance(self, rng):
        series, mask, pre, post = scene_series(rng)
        perm = rng.permutation(pre.size)
        pre_p = pre.ravel()[perm].reshape(pre.shape)
        post_p = post.ravel()[perm].reshape(post.shape)
        labels_p = mask.labels.ravel()[perm].reshape(mask.labels.shape)
        a = extract_anchors(series, mask)
        b = extract_anchors(series_of(pre_p, [post_p]), mask_of(labels_p))
        assert a.values() == b.values()

    def test_empty_tissue_named(self):
        labels = labeled_scene(tumor=False)
        labels[labels == 3] = 2  # wipe out dense
        pre = np.ones(labels.shape, dtype=np.float32)
        with pytest.raises(SubjectError, match="dense"):
            extract_anchors(series_of(pre, [pre]), mask_of(labels))

    def test_empty_heart_named(self):
        labels = labeled_scene(tumor=False)
        labels[labels == 4] = 0
        pre = np.ones(labels.shape, dtype=np.float32)
        with pytest.raises(SubjectError, match="heart"):
            extract_anchors(series_of(pre, [pre]), mask_of(labels))

    def test_mask_dims_mismatch(self):
        labels = labeled_scene(tumor=False)
        pre = np.ones((4, 6, 8), dtype=np.float32)
        small = mask_of(labels[:, :, :6])
        with pytest.raises(ValidationError, match="dims"):
            extract_anchors(series_of(pre, [pre]), small)

    def test_mask_spacing_mismatch(self):
        labels = labeled_scene(tumor=False)
        pre = np.ones(labels.shape, dtype=np.float32)
        with pytest.raises(ValidationError, match="mask and series are on different grids"):
            extract_anchors(series_of(pre, [pre]), mask_of(labels, (1.0, 1.0, 2.0)))

    def test_source_counts_recorded(self):
        labels = labeled_scene(shape=(2, 2, 8), tumor=False)
        pre = np.ones(labels.shape, dtype=np.float32)
        anchors = extract_anchors(series_of(pre, [pre]), mask_of(labels))
        assert anchors.source_counts == {"air": 8, "fat": 8, "dense": 8, "heart": 8}

    def test_tumor_voxels_do_not_feed_anchors(self):
        with_tumor = labeled_scene(tumor=True)
        without = labeled_scene(tumor=False)
        pre = np.arange(with_tumor.size, dtype=np.float32).reshape(with_tumor.shape)
        post = pre * 2
        a = extract_anchors(series_of(pre, [post]), mask_of(with_tumor))
        # carving the tumor out of the dense block changes the dense median
        b = extract_anchors(series_of(pre, [post]), mask_of(without))
        assert a.source_counts["dense"] == b.source_counts["dense"] - 2


class TestAnchorSet:
    def test_values_keyed_by_tissue(self):
        a = anchor_set("s1", 1.0, 2.0, 3.0, 4.0)
        assert a.values() == {"air": 1.0, "fat": 2.0, "dense": 3.0, "heart": 4.0}

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            anchor_set("s1", 1.0, float("nan"), 3.0, 4.0)

    def test_rejects_zero_source_count(self):
        with pytest.raises(ValidationError, match="fat"):
            AnchorSet("s1", 1, 2, 3, 4, {"air": 1, "fat": 0, "dense": 1, "heart": 1})
