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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .anchors import TISSUES, AnchorSet
from .errors import NonFiniteDataError, SubjectError, ValidationError
from .manifest import StudySeries
from .model import NormalizationModel
from .volume import Volume
from .util import atomic_write_text

# Voxels per evaluate call in apply_mapping: each float64 temporary is
# 256 KiB, so a block's working set stays in L2.
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

        Built on first use and kept, since ``apply_mapping`` calls
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

    Control points are sorted by the subject's anchor values. Equal
    anchor values are rejected naming the colliding tissues; a target
    sequence that decreases in that order is rejected as non-monotone.
    """
    subject_values = anchors.values()
    target_values = model.values()
    triples = sorted(
        ((subject_values[t], target_values[t], t) for t in TISSUES), key=lambda p: p[0]
    )
    for (v0, _, t0), (v1, _, t1) in zip(triples, triples[1:]):
        if v0 == v1:
            raise SubjectError(
                f"subject {anchors.subject_id}: tissues {t0!r} and {t1!r} share anchor value {v0}"
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
    v, (start_v, width, start_m, rise, floor, cap) = mapping._pieces
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    # The row is the number of knots at or below x: 4 less those above it.
    # NaN is above no knot, so it lands on the upper tail, as a sorted
    # search would put it.
    k = np.full(xs.shape, 4, dtype=np.uint8)
    for knot in v:
        k -= (xs < knot).view(np.uint8)
    k = k.astype(np.intp)  # one cast here, not one in each of the six gathers

    out = xs - start_v[k]
    out /= width[k]
    out *= rise[k]
    out += start_m[k]
    np.minimum(out, cap[k], out=out)
    np.maximum(floor[k], out, out=out)
    if scalar:
        return float(out[0])
    return out


def apply_mapping(mapping: MappingFunction, series: StudySeries) -> StudySeries:
    """Map every volume of a series with the same function.

    Arithmetic runs in float64 and results are stored as float32,
    matching the on-disk volume format. Each volume is evaluated in
    blocks of ``_BLOCK_VOXELS`` voxels written into one float32 output,
    so each float64 temporary is one block long, whatever the volume
    size, and stays in cache. Blocks join bit for bit: the map is
    pointwise.

    A result beyond float32's range stores as infinity, which ``Volume``
    rejects; the error names the subject.
    """

    def _map(vol: Volume) -> Volume:
        src = vol.data.reshape(-1)
        mapped = np.empty(src.shape, dtype=np.float32)
        # A non-finite result is reported once, by Volume's check below, not as a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, src.size, _BLOCK_VOXELS):
                block = slice(start, start + _BLOCK_VOXELS)
                mapped[block] = evaluate(mapping, src[block])
        try:
            return Volume(mapped.reshape(vol.data.shape), vol.spacing_mm, vol.modality_tag)
        except NonFiniteDataError as exc:
            raise NonFiniteDataError(f"subject {series.subject_id}: mapped {exc}") from None

    return replace(series, pre=_map(series.pre), posts=tuple(_map(p) for p in series.posts))


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
    lines = ["x,fx,is_anchor"]
    for x, fx, flag in curve:
        lines.append(f"{float(x)!r},{float(fx)!r},{int(flag)}")
    atomic_write_text(path, "\n".join(lines) + "\n")
