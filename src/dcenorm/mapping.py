"""Subject-specific piecewise linear intensity mapping.

A mapping is anchored at four control points pairing the subject's own
tissue anchors with the model's target intensities. Between control
points the mapping interpolates linearly. Above the top control point
it extends the trend from the dense anchor to the heart anchor; below
the bottom control point it extends the air-to-fat trend and floors at
the lower of 0 and the bottom target, so mapped intensities cannot
dive arbitrarily negative.

One mapping is built per subject and applied unchanged to the
pre-contrast volume and every post-contrast volume, which preserves
within-subject intensity order and keeps enhancement ratios meaningful.
``map_volume`` maps one volume, so a caller may load, map and write a
subject's volumes one at a time, each into one ``map_buffer``.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass

import numpy as np

from .anchors import TISSUES, AnchorSet
from .errors import NonFiniteDataError, SubjectError, ValidationError
from .model import NormalizationModel
from .volume import Volume
from .util import write_csv

# Voxels per block in map_volume: each float64 work array is 256 KiB, so a block's working set stays in
# L2. With volume's 2**16 scan block, map_volume timed slower on a 2-vCPU VM (82.7 against 79.9 ms on 60x256x256).
_BLOCK_VOXELS = 2**15


@dataclass(frozen=True)
class MappingFunction:
    """Piecewise linear map defined by four (v, m) control points.

    ``knots_v`` is strictly increasing and ``knots_m`` non-decreasing;
    both are sorted by v. ``upper_slope`` is the dense-to-heart secant
    used above the last control point, ``lower_slope`` the air-to-fat
    secant used below the first one. The lower extrapolation floors at
    min(0, knots_m[0]): never above the first control point's target,
    so the map stays monotone even when that target is negative.
    """

    knots_v: tuple[float, float, float, float]
    knots_m: tuple[float, float, float, float]
    upper_slope: float
    lower_slope: float

    def __post_init__(self):
        v, m = self.knots_v, self.knots_m
        if len(v) != 4 or len(m) != 4:
            raise ValidationError("a mapping needs exactly 4 control points")
        # Plain comparisons on four floats cost far less than numpy here; NaN fails each.
        if not (v[0] < v[1] and v[1] < v[2] and v[2] < v[3]):
            raise SubjectError(f"control point values must strictly increase, got {self.knots_v}")
        if not (m[0] <= m[1] and m[1] <= m[2] and m[2] <= m[3]):
            raise SubjectError(f"target values must be non-decreasing, got {self.knots_m}")
        if not (self.lower_slope >= 0 and self.upper_slope >= 0):  # NaN fails too
            raise SubjectError(f"slopes must be >= 0, got {self.lower_slope}, {self.upper_slope}")

    @functools.cached_property
    def _pieces(self) -> tuple[list[float], np.ndarray]:
        """The knots as floats and ``evaluate``'s piece table, transposed.

        Built on first use and kept, since ``map_volume`` calls
        ``evaluate`` once per block with the same mapping.
        """
        v = [float(a) for a in self.knots_v]
        m = [float(a) for a in self.knots_m]
        table = np.array([
            (v[0], 1.0, m[0], self.lower_slope, min(0.0, m[0]), np.inf),
            *((v[i], v[i + 1] - v[i], m[i], m[i + 1] - m[i], -np.inf, m[i + 1]) for i in range(3)),
            (v[3], 1.0, m[3], self.upper_slope, -np.inf, np.inf),
        ]).T
        table.flags.writeable = False
        return v, table


def build_mapping(anchors: AnchorSet, model: NormalizationModel) -> MappingFunction:
    """Pair subject anchors with model targets into a mapping.

    Control points are sorted by the subject's anchor values, which an
    ``AnchorSet`` holds distinct. A target sequence that decreases in
    that order is rejected as non-monotone.
    """
    subject_values = anchors.values()
    target_values = model.values()
    triples = sorted(
        ((subject_values[t], target_values[t], t) for t in TISSUES), key=lambda p: p[0]
    )
    ms = [m for _, m, _ in triples]
    for (_, m0, t0), (_, m1, t1) in zip(triples, triples[1:]):
        if m1 < m0:
            raise SubjectError(
                f"subject {anchors.subject_id}: target for {t1!r} ({m1}) falls below "
                f"target for {t0!r} ({m0}) in anchor order"
            )
    upper = (target_values["heart"] - target_values["dense"]) / (
        subject_values["heart"] - subject_values["dense"]
    )
    lower = (target_values["fat"] - target_values["air"]) / (
        subject_values["fat"] - subject_values["air"]
    )
    return MappingFunction(
        knots_v=tuple(v for v, _, _ in triples),
        knots_m=tuple(ms),
        upper_slope=upper,
        lower_slope=lower,
    )


def evaluate(mapping: MappingFunction, x) -> np.ndarray | float:
    """Evaluate the mapping in float64 at scalar or array ``x``.

    Each piece (lower tail, three segments, upper tail) is one row of a
    table, and every point takes its row's slope form
    m0 + (x - v0) / width * rise, clipped at the row's cap and floor.
    Knots reproduce their targets exactly, as the left ends of their
    pieces. The slope form is weakly monotone under rounding, which the
    blend (1 - t) * m0 + t * m1 is not, and the cap at each segment's
    upper target removes the one remaining ulp of overshoot at its far
    end. The tails have width 1, and dividing by 1.0 is exact. Only the
    lower tail has a finite floor and only the segments a finite cap,
    so every other clip leaves its value as it is, signed zeros too.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = _evaluate(mapping, xs, np.empty_like(xs), np.empty(xs.shape, dtype=np.intp), np.empty_like(xs))
    return float(out[0]) if np.ndim(x) == 0 else out


def _evaluate(mapping: MappingFunction, xs: np.ndarray, out: np.ndarray, k: np.ndarray, gathered: np.ndarray):
    """``evaluate`` of float64 ``xs`` into ``out``, which may be ``xs``, with work arrays ``k`` (intp) and
    ``gathered`` (float64) of its shape; returns ``out``."""
    v, (start_v, width, start_m, rise, floor, cap) = mapping._pieces
    # The row is the number of knots at or below x: 4 less those above it.
    # NaN is above no knot, so it lands on the upper tail, as a sorted
    # search would put it.
    rows = np.full(xs.shape, 4, dtype=np.uint8)
    for knot in v:
        rows -= (xs < knot).view(np.uint8)
    k[...] = rows  # one cast here, not one in each of the six gathers
    # mode="clip" gathers straight into ``gathered``; the rows 0 to 4 are all in range.
    np.subtract(xs, np.take(start_v, k, out=gathered, mode="clip"), out=out)
    out /= np.take(width, k, out=gathered, mode="clip")
    out *= np.take(rise, k, out=gathered, mode="clip")
    out += np.take(start_m, k, out=gathered, mode="clip")
    np.minimum(out, np.take(cap, k, out=gathered, mode="clip"), out=out)
    np.maximum(np.take(floor, k, out=gathered, mode="clip"), out, out=out)
    return out


def map_buffer(voxels: int) -> mmap.mmap:
    """A float32 output of ``voxels`` voxels for ``map_volume``, in an anonymous mapping of its own.

    Its pages are not a malloc block's, so they leave the process when it
    is let go: the heap keeps no freed grid that would sit beside the next
    one. It is populated when it is made, in one call, not one page fault
    at a time as it is written: on a 256x256x60 grid that is about 4 ms,
    not 15.
    """
    return mmap.mmap(-1, 4 * voxels, flags=mmap.MAP_PRIVATE | mmap.MAP_POPULATE)


def map_volume(mapping: MappingFunction, volume: Volume, subject_id: str, out: mmap.mmap | None = None) -> Volume:
    """Map one volume of subject ``subject_id``.

    Arithmetic runs in float64 and the result is stored as float32,
    matching the on-disk volume format. The volume is evaluated in
    blocks of ``_BLOCK_VOXELS`` voxels written into one float32 output,
    through three work arrays of one block, made once: no block makes a
    block-sized array, whose cost would hang on malloc's thresholds, and
    the blocks join bit for bit, as the map is pointwise. Working memory
    is the output, the work arrays and two byte arrays of one block.
    The output is ``out``, a ``map_buffer`` of at least the volume's
    voxels, when one is given, and the result is a view of it: a caller
    that maps volume after volume into one buffer is done with each
    result before it maps the next, and pays for the buffer's pages once.
    Otherwise it is a ``map_buffer`` of its own.

    A result beyond float32's range stores as infinity, which ``Volume``
    rejects; the error names the subject.
    """
    src = volume.data.reshape(-1)
    mapped = np.frombuffer(map_buffer(src.size) if out is None else out, dtype=np.float32, count=src.size)
    work = [np.empty(min(src.size, _BLOCK_VOXELS), dtype=dtype) for dtype in (np.float64, np.intp, np.float64)]
    # A non-finite result is reported once, by Volume's check below, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, src.size, _BLOCK_VOXELS):
            part = src[start : start + _BLOCK_VOXELS]
            xs, k, gathered = (w[: part.size] for w in work)
            xs[...] = part
            mapped[start : start + part.size] = _evaluate(mapping, xs, xs, k, gathered)
    try:
        return Volume(mapped.reshape(volume.data.shape), volume.spacing_mm, volume.modality_tag)
    except NonFiniteDataError as exc:
        raise NonFiniteDataError(f"subject {subject_id}: mapped {exc}") from None


def export_mapping_curve(mapping: MappingFunction) -> np.ndarray:
    """Sample the mapping for plotting.

    Returns an array of rows (x, f(x), is_anchor) sorted by x: 256
    evenly spaced samples over [v0 - 0.05 * span, v3 + 0.25 * span],
    where v0 and v3 are the first and last control points and span is
    v3 - v0, plus the four control points with is_anchor = 1. The range
    reaches past both ends so that the extrapolation tails are visible;
    it is never empty, since the control points strictly increase.
    """
    v = np.asarray(mapping.knots_v, dtype=np.float64)
    span = float(v[3] - v[0])
    xs = np.linspace(float(v[0]) - 0.05 * span, float(v[3]) + 0.25 * span, 256)
    all_x = np.concatenate([xs, v])
    flags = np.concatenate([np.zeros(xs.size), np.ones(4)])
    order = np.argsort(all_x, kind="stable")
    all_x = all_x[order]
    flags = flags[order]
    fx = evaluate(mapping, all_x)
    return np.column_stack([all_x, fx, flags])


def write_mapping_curve(path, curve: np.ndarray) -> None:
    write_csv(path, ["x", "fx", "is_anchor"], ((x, fx, int(flag)) for x, fx, flag in curve))
