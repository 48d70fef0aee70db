import tracemalloc

import numpy as np
import pytest

from dcenorm import AnchorSet, GroupSpec, PhantomConfig, SubjectError, ValidationError, extract_anchors, generate_phantom
from dcenorm import anchors as anchors_module
from dcenorm import volume as volume_module
from dcenorm.volume import AIR, DENSE, FAT, HEART

from helpers import anchor_set, labeled_scene, mask_of, percentile_oracle, read_subject, series_of


def scene_series(rng, shape=(4, 6, 8), scale=1.0):
    """Series plus mask where every tissue block has known random values."""
    labels = labeled_scene(shape, tumor=False)
    pre = rng.uniform(0, 100, size=shape).astype(np.float32) * scale
    post = rng.uniform(100, 300, size=shape).astype(np.float32) * scale
    return series_of(pre, [post]), mask_of(labels), pre, post


def counting_passes(patch):
    """Patch the anchors' selector to count the passes each selection makes over the grid positions; returns
    one count per selection."""
    passes = []
    select = anchors_module._kth_smallest

    def counted(values, n, count, k):
        passes.append(0)

        def read(s):
            if s.step is None and s.start == 0:  # a pass's first block: the sample's slice has a step
                passes[-1] += 1
            return values(s)

        return select(read, n, count, k)

    patch.setattr(anchors_module, "_kth_smallest", counted)
    return passes


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
        pre = np.arange(10, dtype=np.float32).reshape(1, 1, 10)  # air, fat and dense anchors 0, 1 and 2
        post1 = np.arange(1, 11, dtype=np.float32).reshape(1, 1, 10)
        post2 = np.full((1, 1, 10), 500, dtype=np.float32)
        anchors = extract_anchors(series_of(pre, [post1, post2]), mask_of(labels))
        # heart voxels hold {4..10}; nearest-rank p90 of 7 values is the 7th
        assert anchors.v_heart == 10.0

    def test_heart_ten_values_p90(self):
        labels = np.full((1, 1, 13), 4, dtype=np.uint8)
        labels[0, 0, :3] = [1, 2, 3]
        pre = np.arange(13, dtype=np.float32).reshape(1, 1, 13)  # air, fat and dense anchors 0, 1 and 2
        post = np.concatenate([[0, 0, 0], np.arange(1, 11)]).astype(np.float32)
        anchors = extract_anchors(
            series_of(pre, [post.reshape(1, 1, 13)]), mask_of(labels)
        )
        assert anchors.v_heart == 9.0

    def test_matches_sort_oracle(self, rng):
        for _ in range(30):
            series, mask, pre, post = scene_series(rng)
            anchors = extract_anchors(series, mask)
            assert anchors.v_air == percentile_oracle(pre[mask.tissue(1)], 50)
            assert anchors.v_fat == percentile_oracle(pre[mask.tissue(2)], 50)
            assert anchors.v_dense == percentile_oracle(pre[mask.tissue(3)], 50)
            assert anchors.v_heart == percentile_oracle(post[mask.tissue(4)], 90)

    @pytest.mark.parametrize("block", [7, volume_module._SCAN_BLOCK])
    @pytest.mark.parametrize("ties", [True, False], ids=["ties", "distinct"])
    def test_exact_through_the_blocked_pass(self, rng, ties, block):
        """With a 16-position sample, each tissue's 120 voxels make the selector pass over the grid, the labels
        read a block at a time. The sample's stride of 60 positions hits air and dense but no fat or heart
        voxel, and a 7-voxel block puts ties across the block edges of the count and the passes."""
        labels = labeled_scene((6, 10, 16), tumor=False)
        assert set(labels.reshape(-1)[:: labels.size // 16]) == {0, AIR, DENSE}
        draw = (lambda: rng.integers(0, 4, labels.shape)) if ties else (lambda: rng.normal(0.0, 1.0, labels.shape))
        pre = (draw() + 10.0 * labels).astype(np.float32)  # each tissue's values apart from the others'
        post = (draw() + 100.0).astype(np.float32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(volume_module, "_SAMPLE", 16)
            for module in (volume_module, anchors_module):
                patch.setattr(module, "_SCAN_BLOCK", block)
            passes = counting_passes(patch)
            anchors = extract_anchors(series_of(pre, [post]), mask_of(labels))
        assert len(passes) == 4 and min(passes) >= 1
        assert anchors.values() == {
            "air": percentile_oracle(pre[labels == AIR], 50),
            "fat": percentile_oracle(pre[labels == FAT], 50),
            "dense": percentile_oracle(pre[labels == DENSE], 50),
            "heart": percentile_oracle(post[labels == HEART], 90),
        }
        assert anchors.source_counts == {"air": 120, "fat": 120, "dense": 120, "heart": 120}

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
        pre = labels.astype(np.float32)  # one value per tissue, so no two anchors tie
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


def test_forms_no_tissue_grid(tmp_path):
    """On a 256x256x32 phantom subject every tissue is larger than the selector's sample, so each is selected
    by blocked passes. The traced peak stays within the selector's working memory: the sample and a partitioned
    copy, at most 2 * _SAMPLE float32 values each; one block's float32 values and three flags a value; and the
    values kept, under 1/16 of the tissue, twice over. A tissue's boolean grid, 2 MiB here, would cross it."""
    (entry,) = generate_phantom(PhantomConfig(dims=(256, 256, 32), groups=(GroupSpec("A", 1),)), tmp_path)
    series, mask = read_subject(entry)
    counts = [int(np.count_nonzero(mask.labels == code)) for code in (AIR, FAT, DENSE, HEART)]
    assert min(counts) > volume_module._SAMPLE
    bound = 2 * 2 * 4 * volume_module._SAMPLE + 7 * volume_module._SCAN_BLOCK + 2 * 4 * max(counts) // 16
    tracemalloc.start()
    try:
        extract_anchors(series, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


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

    def test_rejects_two_tissues_that_share_a_value(self):
        """The pair named is the first in ascending order of value, as a map's control points would collide."""
        with pytest.raises(SubjectError) as info:
            anchor_set("s1", 5.0, 5.0, 1.0, 1.0)
        assert str(info.value) == "subject s1: tissues 'dense' and 'heart' share anchor value 1.0"
