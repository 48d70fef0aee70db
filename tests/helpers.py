"""Builders shared across test modules.

Everything here constructs in-memory objects; tests that need on-disk
volumes write them through the package's own save functions so the
round trip stays inside the code under test.
"""

import numpy as np

from dcenorm import AnchorSet, StudySeries, TissueMask, Volume

UNIT = (1.0, 1.0, 1.0)


def vol(data, spacing=UNIT, tag=""):
    return Volume(np.asarray(data, dtype=np.float32), spacing, tag)


def flat_vol(values, spacing=UNIT):
    """A (1, 1, n) volume holding the given 1-D sequence."""
    arr = np.asarray(values, dtype=np.float32).reshape(1, 1, -1)
    return Volume(arr, spacing)


def mask_of(labels, spacing=UNIT):
    return TissueMask(np.asarray(labels, dtype=np.uint8), spacing)


def series_of(pre, posts, subject_id="s0", spacing=UNIT):
    """Series from plain arrays; all volumes share one shape and spacing."""
    pre_v = vol(pre, spacing)
    post_v = tuple(vol(p, spacing) for p in posts)
    return StudySeries(subject_id, pre_v, post_v)


def anchor_set(subject_id, air, fat, dense, heart):
    counts = {"air": 1, "fat": 1, "dense": 1, "heart": 1}
    return AnchorSet(subject_id, air, fat, dense, heart, counts)


def labeled_scene(shape=(4, 6, 8), tumor=True):
    """Label array with one block per tissue, plus matching coordinates.

    Layout along x: air in [0, 2), fat in [2, 4), dense in [4, 6) with a
    tumor voxel carved out of the dense block when requested, heart in
    [6, 8). Returns the uint8 label array.
    """
    nz, ny, nx = shape
    if nx < 8:
        raise ValueError("scene needs nx >= 8")
    labels = np.zeros(shape, dtype=np.uint8)
    labels[:, :, 0:2] = 1
    labels[:, :, 2:4] = 2
    labels[:, :, 4:6] = 3
    labels[:, :, 6:8] = 4
    if tumor:
        labels[nz // 2, ny // 2, 4] = 5
        labels[nz // 2, ny // 2, 5] = 5
    return labels
