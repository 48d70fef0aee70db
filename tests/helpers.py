"""Builders shared across test modules.

Everything here constructs in-memory objects; tests that need on-disk
volumes write them through the package's own save functions so the
round trip stays inside the code under test. The adapters at the end
read a subject in the stages' order and run the package's per-volume
functions over a whole ``StudySeries``. ``peak_rss_growth`` measures a
job's memory in a fresh interpreter.
"""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcenorm
from dcenorm import AnchorSet, StudySeries, TissueMask, Volume, extract_features, map_volume
from dcenorm.manifest import check_subject_grids, load_series, load_subject_mask, load_volumes
from dcenorm.segmentation import SegmentationConfig, classical_mask

UNIT = (1.0, 1.0, 1.0)


def vol(data, spacing=UNIT, tag=""):
    return Volume(np.asarray(data, dtype=np.float32), spacing, tag)


def flat_vol(values, spacing=UNIT):
    """A (1, 1, n) volume holding the given 1-D sequence."""
    arr = np.asarray(values, dtype=np.float32).reshape(1, 1, -1)
    return Volume(arr, spacing)


def percentile_oracle(values, q):
    """Nearest-rank percentile by a sort: the value at 0-based index ceil(q/100 * n) - 1 of the ascending order."""
    ordered = np.sort(np.asarray(values).reshape(-1))
    return ordered[max(math.ceil(q * ordered.size / 100.0) - 1, 0)]


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


def read_subject(entry):
    """``(series, mask)`` of ``entry``, read in the stages' order: grids from the sidecars, the mask, the volumes."""
    check_subject_grids(entry)
    mask = load_subject_mask(entry)
    return load_series(entry), mask


def extract_series(series, mask, denoise_radius=None, normalized=False):
    """``extract_features`` on the volumes of a loaded series."""
    return extract_features(series.subject_id, mask, series.volumes, len(series.posts), denoise_radius, normalized)


def map_series(mapping, series):
    """Every volume of a loaded series mapped with ``map_volume``, the same function for each."""
    pre, *posts = (map_volume(mapping, volume, series.subject_id) for volume in series.volumes)
    return StudySeries(series.subject_id, pre, tuple(posts))


_GROWTH_SCRIPT = """
import pickle, sys

def status(key):
    with open("/proc/self/status") as lines:
        return next(int(line.split()[1]) * 1024 for line in lines if line.startswith(key + ":"))

fn, warm_up, job = pickle.loads(sys.stdin.buffer.read())
fn(*warm_up)
resident = status("VmRSS")
fn(*job)
print(status("VmHWM") - resident)
"""


def peak_rss_growth(fn, warm_up: tuple, job: tuple) -> int:
    """Bytes by which ``fn(*job)`` lifts a fresh interpreter's peak resident set above the set it held before.

    ``fn(*warm_up)`` runs first, on a small input, so that imports and
    first-call allocations fall outside the measure while the peak so far
    stays near the resident set. Unlike tracemalloc, the resident set holds
    every page the job touches: mapped payloads, anonymous mappings, and
    heap that malloc keeps after a free. ``fn`` and the arguments are
    pickled, so ``fn`` is a module-level function.

    The peak is the interpreter's own ``VmHWM``, not ``ru_maxrss``: a
    child's ``ru_maxrss`` starts at the peak of the process that launched
    it, here the test runner. Linux only, since both come from
    ``/proc/self/status``.
    """
    if not sys.platform.startswith("linux"):
        pytest.skip("reads VmRSS and VmHWM from /proc/self/status, as Linux gives them")
    paths = [str(Path(dcenorm.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _GROWTH_SCRIPT], input=pickle.dumps((fn, warm_up, job)), env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return int(done.stdout)


def segment_volumes(files):
    """``classical_mask`` over the volumes ``files`` name, drawn as ``segment`` draws them."""
    return classical_mask(load_volumes(files), SegmentationConfig())
