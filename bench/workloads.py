"""The three benchmark workloads and the README walkthrough they run.

Each workload is a phantom description (passed to ``dcenorm phantom``
as a config file, or no config at all for the README default), an
optional edit of the generated manifest, and the flags its two
``features`` runs take. ``steps`` turns a workload and a work directory
into the seven post-phantom subcommands, as argument lists for
``python -m dcenorm`` or ``dcenorm.cli.main``.

Every path handed to the CLI is absolute: ``segment`` writes paths into
its output manifest relative to the current directory rather than to
the manifest, so relative paths only work from one directory. That is
a known defect of the program which this benchmark does not cover.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

# Group B of the README phantom, spelled out because a phantom config
# that names groups replaces both of them.
_GROUP_A = {"name": "A", "n_subjects": 20}
_GROUP_B = {
    "name": "B", "n_subjects": 20, "scale": 1.5, "offset": 50.0,
    "te_ms": 2.6, "tr_ms": 5.2, "field_t": 3.0,
}

KS_FEATURES = ("F10", "F11", "F12", "F13", "F14", "F15")

# Phantom seed of the acceptance suite's cohorts. The suite sets its
# denoised-F6 limit on the noisy cohort at this seed, and only there.
SUITE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Phantom config written for ``dcenorm phantom --config``; None runs
    # the phantom with its built-in defaults, as the README does.
    phantom: dict | None = None
    # Remove ``mask`` from every manifest record so ``segment`` runs the
    # classical chain instead of copying the ground-truth masks.
    drop_masks: bool = False
    denoise_radius: int | None = None
    # Cohort checks, thresholds from tests/test_acceptance.py. The
    # denoised-F6 limit is checked on the cohort at SUITE_SEED.
    ks_drop: tuple[str, ...] = ()
    f6_ks_below: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-cohort",
            why="README walkthrough on the default 40-subject 64x64x24 phantom: "
            "process startup, per-file I/O and per-call overhead dominate",
            ks_drop=KS_FEATURES,
        ),
        Workload(
            name="clinical-pair",
            why="two 256x256x60 subjects without masks: classical segmentation and "
            "per-voxel kernels dominate, and peak memory is set here",
            phantom={
                "dims": [256, 256, 60],
                "groups": [dict(_GROUP_A, n_subjects=1), dict(_GROUP_B, n_subjects=1)],
            },
            drop_masks=True,
        ),
        Workload(
            name="noisy-denoise",
            why="default cohort with group B at noise_sigma 10 and both feature runs "
            "median filtered: the only workload where the median filter runs",
            phantom={"groups": [_GROUP_A, dict(_GROUP_B, noise_sigma=10.0)]},
            denoise_radius=1,
            f6_ks_below=0.15,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A small-grid variant of a workload, for the smoke test.

    Keeps the cohort size, so the cohort checks keep their statistical
    meaning, and shrinks the grid: cohorts to 48x48x16, where the
    denoised F6 check still holds at seed 0 (it fails at 32x32x12), and
    the clinical pair to the default 64x64x24.
    """
    phantom = dict(workload.phantom or {})
    phantom["dims"] = [64, 64, 24] if workload.drop_masks else [48, 48, 16]
    return replace(workload, name=f"{workload.name}-tiny", phantom=phantom)


@dataclass(frozen=True)
class Layout:
    """Where one run keeps its inputs and outputs; every path absolute."""

    root: Path

    @property
    def data(self) -> Path:
        return self.root / "data"

    @property
    def out(self) -> Path:
        return self.root / "out"

    @property
    def phantom_config(self) -> Path:
        return self.root / "phantom.json"


def phantom_args(workload: Workload, layout: Layout, seed: int) -> list[str]:
    args = ["phantom", "--out", str(layout.data), "--seed", str(seed)]
    if workload.phantom is not None:
        args += ["--config", str(layout.phantom_config)]
    return args


def write_phantom_config(workload: Workload, layout: Layout) -> None:
    layout.root.mkdir(parents=True, exist_ok=True)
    if workload.phantom is not None:
        layout.phantom_config.write_text(json.dumps(workload.phantom) + "\n")


def prepare_inputs(workload: Workload, layout: Layout) -> None:
    """Edit the generated manifest as the workload requires."""
    if workload.drop_masks:
        path = layout.data / "manifest.json"
        records = json.loads(path.read_text())
        for record in records:
            record.pop("mask", None)
        path.write_text(json.dumps(records, indent=2) + "\n")


@dataclass(frozen=True)
class Step:
    name: str
    args: tuple[str, ...]
    takes_jobs: bool = True


def steps(workload: Workload, layout: Layout) -> list[Step]:
    """The seven post-phantom subcommands of the README walkthrough."""
    data, out = layout.data, layout.out
    masks, norm = out / "masks", out / "norm"
    denoise = () if workload.denoise_radius is None else ("--denoise-median", str(workload.denoise_radius))
    return [
        Step("segment", ("segment", "--manifest", f"{data}/manifest.json", "--out-dir", str(masks))),
        Step("train", ("train", "--manifest", f"{masks}/manifest.json", "--out", f"{out}/model.json")),
        Step("normalize", (
            "normalize", "--manifest", f"{masks}/manifest.json", "--model", f"{out}/model.json",
            "--out-dir", str(norm), "--emit-mapping", f"{out}/curves",
        )),
        Step("features", (
            "features", "--manifest", f"{masks}/manifest.json", "--out", f"{out}/before.csv", *denoise,
        )),
        Step("features", (
            "features", "--manifest", f"{norm}/manifest.json", "--out", f"{out}/after.csv",
            "--normalized", *denoise,
        )),
        Step("evaluate", (
            "evaluate", "--before", f"{out}/before.csv", "--after", f"{out}/after.csv",
            "--manifest", f"{masks}/manifest.json", "--manifest-after", f"{norm}/manifest.json",
            "--group-by", "te", "--out", f"{out}/report.json",
        ), takes_jobs=False),
        Step("auc", (
            "auc", "--features", f"{out}/before.csv", "--labels", f"{data}/labels.csv",
            "--out", f"{out}/auc.csv",
        ), takes_jobs=False),
    ]


def with_jobs(args, takes_jobs: bool, jobs: int) -> list[str]:
    return [*args, "--jobs", str(jobs)] if takes_jobs else list(args)
