"""Synthetic desk-scale DCE-MRI datasets with known ground truth.

Every subject shares one fixed anatomy: an anterior ellipsoidal breast
of fat holding a dense-tissue blob with a small tumor sphere inside it,
and a posterior heart sphere, all surrounded by air. A dataset has one
or more scanner groups; each group applies an affine intensity
distortion (scale, offset) and Gaussian noise to the common anatomy,
and stamps its acquisition metadata (TE, TR, field strength) on its
subjects.

Subjects at the same index in different groups form a matched set: they
are built from the same random draws, so they differ only by the group
affine (and noise amplitude, when groups disagree on sigma). That makes
post-normalization agreement between groups a sharp oracle instead of a
statistical one.

Randomness is a counter-based Philox stream keyed by (seed, subject
index), so generation is byte-identical across runs, platforms, and
worker counts.

Dense tissue enhances with an anterior-posterior gradient whose
amplitude is drawn uniformly per subject index: this gives the
enhancement maps real spatial structure and the cohort an even
between-subject spread, which the noise-sensitivity checks rely on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .manifest import SubjectEntry, load_manifest, save_labels, save_manifest, subject_file
from .volume import AIR, DENSE, FAT, HEART, TUMOR, TissueMask, Volume, save_mask, save_volume
from .util import is_number, json_object, read_json, run_parallel

# Anatomy layout, as fractions of the volume dims so any grid works.
# Each entry is (center_frac, semi_axis_frac) in (x, y, z) order; y = 0
# is the anterior (breast) side.
_BREAST = ((0.5, 0.28125, 0.5), (0.375, 0.203125, 0.375))
_DENSE = ((0.5, 0.25, 0.5), (0.15625, 0.09375, 5.0 / 24.0))
_TUMOR = ((0.40625, 0.25, 0.5), (0.05, 0.05, 3.2 / 24.0))
_HEART = ((0.5, 0.71875, 0.5), (0.09375, 0.09375, 0.25))


def _numbers(value, key: str, n: int | None = None, kind: type = Real) -> tuple:
    """``value`` as a tuple of ``kind`` numbers (``n`` of them if given), or a ValidationError naming ``key``."""
    if (
        not isinstance(value, (list, tuple))
        or (n is not None and len(value) != n)
        or not all(is_number(v, kind) for v in value)
    ):
        count = "" if n is None else f"{n} "
        noun = "integers" if kind is Integral else "numbers"
        raise ValidationError(f"{key} must be a list of {count}{noun}, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class GroupSpec:
    """One scanner group: cohort size, affine distortion, metadata."""

    name: str
    n_subjects: int
    scale: float = 1.0
    offset: float = 0.0
    te_ms: float = 1.8
    tr_ms: float = 4.0
    field_t: float = 1.5
    noise_sigma: float = 2.0

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.isalnum():
            raise ValidationError(f"group name must be non-empty alphanumeric, got {self.name!r}")
        if not (is_number(self.n_subjects, Integral) and self.n_subjects >= 1):
            raise ValidationError(f"group {self.name}: n_subjects must be an integer >= 1, got {self.n_subjects!r}")
        for key in ("scale", "offset", "te_ms", "tr_ms", "field_t", "noise_sigma"):
            if not is_number(getattr(self, key)):
                raise ValidationError(f"group {self.name}: {key} must be a number, got {getattr(self, key)!r}")
        if self.scale <= 0:
            raise ValidationError(f"group {self.name}: scale must be positive")
        if self.noise_sigma < 0:
            raise ValidationError(f"group {self.name}: noise_sigma must be >= 0")


def _default_groups() -> tuple[GroupSpec, ...]:
    return (
        GroupSpec(name="A", n_subjects=20, scale=1.0, offset=0.0, te_ms=1.8, tr_ms=4.0, field_t=1.5),
        GroupSpec(name="B", n_subjects=20, scale=1.5, offset=50.0, te_ms=2.6, tr_ms=5.2, field_t=3.0),
    )


def _default_intensities() -> dict[str, float]:
    return {"air": 0.0, "fat": 400.0, "dense": 200.0, "heart": 300.0, "tumor": 240.0}


def _default_enhancement() -> dict[str, tuple[float, ...]]:
    # Fat enhances weakly but non-trivially: a zero fat enhancement
    # leaves median-filtered windows that straddle the dense/fat border
    # with noise-only enhancement-ratio denominators, which turns the
    # denoised SER features into amplifier artifacts instead of
    # smoothed ones.
    return {
        "fat": (1.05, 1.1, 1.15),
        "dense": (1.3, 1.45, 1.6),
        "heart": (3.0, 2.8, 2.6),
        "tumor_label0": (2.0, 1.9, 1.8),
        "tumor_label1": (2.4, 2.2, 2.0),
    }


@dataclass(frozen=True)
class PhantomConfig:
    dims: tuple[int, int, int] = (64, 64, 24)
    spacing_mm: tuple[float, float, float] = (2.0, 2.0, 4.0)
    seed: int = 0
    n_posts: int = 3
    intensities: dict[str, float] = field(default_factory=_default_intensities)
    enhancement: dict[str, tuple[float, ...]] = field(default_factory=_default_enhancement)
    gradient_range: tuple[float, float] = (0.1, 0.55)
    groups: tuple[GroupSpec, ...] = field(default_factory=_default_groups)

    def __post_init__(self):
        dims = _numbers(self.dims, "dims", 3, Integral)
        if any(d < 8 for d in dims):
            raise ValidationError(f"dims must be 3 entries >= 8, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing_mm", _numbers(self.spacing_mm, "spacing_mm", 3))
        if not (is_number(self.seed, Integral) and 0 <= self.seed < 2 ** 64):
            raise ValidationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (is_number(self.n_posts, Integral) and self.n_posts >= 1):
            raise ValidationError(f"n_posts must be an integer >= 1, got {self.n_posts!r}")
        missing = set(_default_intensities()) - set(self.intensities)
        if missing:
            raise ValidationError(f"intensities missing tissues: {sorted(missing)}")
        for tissue, value in self.intensities.items():
            if not is_number(value):
                raise ValidationError(f"intensities[{tissue!r}] must be a number, got {value!r}")
        enhancement = {k: _numbers(v, f"enhancement[{k!r}]") for k, v in self.enhancement.items()}
        object.__setattr__(self, "enhancement", enhancement)
        for tissue, factors in enhancement.items():
            if len(factors) < self.n_posts:
                raise ValidationError(
                    f"enhancement[{tissue!r}] has {len(factors)} factors, need {self.n_posts}"
                )
        if not self.groups:
            raise ValidationError("at least one group is required")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValidationError(f"group names must be unique, got {names}")
        lo, hi = _numbers(self.gradient_range, "gradient_range", 2)
        object.__setattr__(self, "gradient_range", (lo, hi))
        if not (0.0 <= lo <= hi):
            raise ValidationError(f"gradient_range must satisfy 0 <= lo <= hi, got {self.gradient_range}")


# The seed comes only from ``dcenorm phantom --seed``, so a description file cannot set it.
_CONFIG_KEYS = {f.name for f in dataclasses.fields(PhantomConfig)} - {"seed"}
_GROUP_KEYS = {f.name for f in dataclasses.fields(GroupSpec)}
_GROUP_REQUIRED = {"name", "n_subjects"}
# Sections given as objects whose entries override the defaults one by one.
_MERGED_SECTIONS = {"enhancement": _default_enhancement, "intensities": _default_intensities}


def phantom_config_from_json(path: Path | str) -> PhantomConfig:
    """Load a phantom config file, rejecting unknown keys by name."""
    kwargs = dict(json_object(read_json(path), _CONFIG_KEYS, "phantom config", path))
    for key, defaults in _MERGED_SECTIONS.items():
        if key in kwargs:
            merged = defaults()
            merged.update(json_object(kwargs[key], merged, key, path))
            kwargs[key] = merged
    if "groups" in kwargs:
        if not isinstance(kwargs["groups"], list):
            raise ValidationError("groups must be a list of objects", path=path)
        kwargs["groups"] = tuple(
            GroupSpec(**json_object(g, _GROUP_KEYS, f"groups[{i}]", path, _GROUP_REQUIRED))
            for i, g in enumerate(kwargs["groups"])
        )
    return PhantomConfig(**kwargs)


def _ellipsoid(dims: tuple[int, int, int], shape) -> np.ndarray:
    """Boolean mask of an axis-aligned ellipsoid given as dim fractions."""
    nx, ny, nz = dims
    (fx, fy, fz), (gx, gy, gz) = shape
    x = (np.arange(nx) - fx * nx) / (gx * nx)
    y = (np.arange(ny) - fy * ny) / (gy * ny)
    z = (np.arange(nz) - fz * nz) / (gz * nz)
    return (
        x[None, None, :] ** 2 + y[None, :, None] ** 2 + z[:, None, None] ** 2
    ) <= 1.0


def phantom_mask(dims: tuple[int, int, int], spacing_mm) -> TissueMask:
    """Ground-truth tissue labels shared by every phantom subject."""
    breast = _ellipsoid(dims, _BREAST)
    dense = _ellipsoid(dims, _DENSE)
    tumor = _ellipsoid(dims, _TUMOR)
    heart = _ellipsoid(dims, _HEART)
    nz, ny, nx = dims[2], dims[1], dims[0]
    labels = np.full((nz, ny, nx), AIR, dtype=np.uint8)
    labels[breast] = FAT
    labels[dense] = DENSE
    labels[tumor] = TUMOR
    labels[heart] = HEART
    return TissueMask(labels, tuple(spacing_mm))


def _gradient_profile(dims: tuple[int, int, int]) -> np.ndarray:
    """Anterior-posterior ramp over the dense blob, in [-1, 1]."""
    ny = dims[1]
    (_, fy, _), (_, gy, _) = _DENSE
    ramp = (np.arange(ny) - fy * ny) / (gy * ny)
    return np.clip(ramp, -1.0, 1.0)[None, :, None]


def _anatomy_rng(seed: int, anatomy: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | anatomy))


def _base_field(cfg: PhantomConfig, mask: TissueMask, anatomy: int, grad_amp: float, k: int) -> np.ndarray:
    """Undistorted float64 intensity field of volume ``k`` (0 for pre, ``p`` for post ``p``) of one anatomy index,
    on ``mask``'s labels."""
    fat = mask.labels == FAT
    dense = mask.labels == DENSE
    tumor = mask.labels == TUMOR
    heart = mask.labels == HEART

    base = cfg.intensities
    field = np.full(mask.labels.shape, base["air"], dtype=np.float64)
    if k == 0:
        field[fat] = base["fat"]
        field[dense] = base["dense"]
        field[tumor] = base["tumor"]
        field[heart] = base["heart"]
        return field
    p = k - 1
    enh = cfg.enhancement
    tumor_key = "tumor_label1" if anatomy % 2 else "tumor_label0"
    ramp = np.broadcast_to(_gradient_profile(cfg.dims), mask.labels.shape)
    field[fat] = base["fat"] * enh["fat"][p]
    field[dense] = base["dense"] * (enh["dense"][p] + grad_amp * ramp[dense])
    field[tumor] = base["tumor"] * enh[tumor_key][p]
    field[heart] = base["heart"] * enh["heart"][p]
    return field


# Extreme configured values overflow float32 silently; Volume then rejects the non-finite data as one error.
@np.errstate(over="ignore", invalid="ignore")
def _generate_anatomy(job: tuple[PhantomConfig, str, int]) -> list[SubjectEntry]:
    """Emit every subject at one anatomy index; returns their entries.

    All randomness for the index is drawn here, in a fixed order (the
    gradient amplitude, then each volume's unit noise, pre first), and
    each draw is reused for every group member, so matched subjects
    differ only by their group's affine and noise amplitude. Volume k
    is written for every member before volume k + 1 is built, so one
    clean field and one noise field are held at a time.
    """
    cfg, out_dir, anatomy = job
    rng = _anatomy_rng(cfg.seed, anatomy)
    # Stratified draw: anatomy k jitters inside the middle half of the
    # k-th subinterval of gradient_range. Adjacent anatomies then keep a
    # guaranteed amplitude gap, which i.i.d. draws do not.
    n_anat = max(g.n_subjects for g in cfg.groups)
    lo, hi = cfg.gradient_range
    stratum = (anatomy % n_anat + 0.3 + 0.4 * float(rng.random())) / n_anat
    grad_amp = lo + (hi - lo) * stratum
    mask = phantom_mask(cfg.dims, cfg.spacing_mm)
    members = [(group, f"{group.name}{anatomy:03d}") for group in cfg.groups if anatomy < group.n_subjects]
    for k in range(cfg.n_posts + 1):
        clean = _base_field(cfg, mask, anatomy, grad_amp, k)
        noise = rng.standard_normal(size=clean.shape)
        tag = f"dce-post{k}" if k else "dce-pre"
        for group, sid in members:
            distorted = ((clean + group.noise_sigma * noise) * group.scale + group.offset).astype(np.float32)
            save_volume(Volume(distorted, cfg.spacing_mm, tag), subject_file(sid, out_dir, k))
        del clean, noise

    # The group's values are kept as configured, ints included.
    posts = range(1, cfg.n_posts + 1)
    return [
        SubjectEntry(sid, subject_file(sid, out_dir, 0), tuple(subject_file(sid, out_dir, k) for k in posts),
                     group.te_ms, group.tr_ms, group.field_t, save_mask(mask, subject_file(sid, out_dir, None)),
                     label=anatomy % 2)
        for group, sid in members
    ]


def generate_phantom(cfg: PhantomConfig, out_dir: Path | str, jobs: int = 1) -> tuple[SubjectEntry, ...]:
    """Write a full phantom dataset and return its loaded manifest entries.

    Produces per subject a pre volume, n_posts post volumes, and a
    ground-truth mask, plus manifest.json and labels.csv. The manifest
    interleaves groups (A000, B000, A001, ...) so any prefix of it
    stays group-balanced. Output is byte-identical for a fixed config
    regardless of jobs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    max_n = max(g.n_subjects for g in cfg.groups)
    per_anatomy = run_parallel(_generate_anatomy, [(cfg, str(out), k) for k in range(max_n)], jobs)
    entries = [entry for group_entries in per_anatomy for entry in group_entries]
    save_labels(out, entries)
    return load_manifest(save_manifest(out, entries))
