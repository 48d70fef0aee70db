"""Command line front-end.

Subcommands stage the pipeline through files: phantom generation,
segmentation, archetype training, normalization, feature extraction,
evaluation, and single-feature AUC. Every subcommand exits 0 on
success, 1 on a validation failure, and 2 on an I/O failure (missing
inputs, unwritable outputs); failures print exactly one line to stderr
of the form ``error[validation]: ...`` or ``error[io]: ...``.

An optional JSON config file (``--config``) tunes the pipeline via the
sections ``segmentation`` (read by ``segment``), ``anchors`` (``train``
and ``normalize``), ``features`` (``features``) and ``evaluation``
(``evaluate``); command-line flags override config values. Unknown
sections or keys are rejected by name. ``phantom --config`` takes a
phantom description instead, and ``auc`` takes no config.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import anchors as anchors_mod
from . import evaluation as eval_mod
from .errors import ConfigError, DcenormError, MissingInputError, SegmentationError, ValidationError
from .features import extract_features, read_features_csv, write_features_csv
from .manifest import (
    SubjectEntry, check_outputs_spare_inputs, check_subject_grids, load_manifest, load_series,
    load_subject as _load_subject, read_labels_csv, save_manifest, save_subject, subject_file,
)
from .mapping import apply_mapping, build_mapping, export_mapping_curve, write_mapping_curve
from .model import NormalizationModel, load_model, save_model, train_archetype
from .phantom import PhantomConfig, generate_phantom, phantom_config_from_json
from .segmentation import SegmentationConfig, classical_mask
from .util import atomic_write_json, atomic_write_text, default_jobs, is_number, json_object, read_json, run_parallel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CliConfig:
    segmentation: SegmentationConfig
    heart_rule: str = "p90"
    clamp_floor: float = 0.0
    denoise_radius: int | None = None
    group_by: str | None = None
    group_threshold: float | None = None


_SECTION_KEYS = {
    "segmentation": {f.name for f in dataclasses.fields(SegmentationConfig)},
    "anchors": {"heart_rule", "clamp_floor"},
    "features": {"denoise_radius"},
    "evaluation": {"group_by", "threshold"},
}


def _check_denoise_radius(radius, name: str, path: Path | str | None = None) -> None:
    if radius is not None and not (is_number(radius, int) and radius >= 1):
        raise ConfigError(f"{name} must be an integer >= 1, got {radius!r}", path=path)


def load_cli_config(path: Path | str | None) -> CliConfig:
    if path is None:
        return CliConfig(segmentation=SegmentationConfig())
    raw = json_object(read_json(path), _SECTION_KEYS, "config", ConfigError, path)
    seg_sec, anchors_sec, features_sec, eval_sec = (
        json_object(raw.get(section, {}), keys, f"config section {section!r}", ConfigError, path)
        for section, keys in _SECTION_KEYS.items()
    )
    seg = SegmentationConfig(**seg_sec)
    clamp_floor = anchors_sec.get("clamp_floor", 0.0)
    if not is_number(clamp_floor):
        raise ConfigError(f"anchors.clamp_floor must be a finite number, got {clamp_floor!r}", path=path)
    cfg = CliConfig(
        segmentation=seg,
        heart_rule=anchors_sec.get("heart_rule", "p90"),
        clamp_floor=float(clamp_floor),
        denoise_radius=features_sec.get("denoise_radius"),
        group_by=eval_sec.get("group_by"),
        group_threshold=eval_sec.get("threshold"),
    )
    if cfg.heart_rule not in anchors_mod.HEART_RULES:
        raise ConfigError(f"unknown heart_rule {cfg.heart_rule!r}", path=path)
    _check_denoise_radius(cfg.denoise_radius, "features.denoise_radius", path=path)
    if cfg.group_threshold is not None and not is_number(cfg.group_threshold):
        raise ConfigError(f"evaluation.threshold must be a finite number, got {cfg.group_threshold!r}", path=path)
    if cfg.group_by is not None and cfg.group_by not in eval_mod.GROUP_KEYS:
        raise ConfigError(f"evaluation.group_by must be one of {eval_mod.GROUP_KEYS}", path=path)
    return cfg


# ---------------------------------------------------------------------------
# per-subject workers (top level so process pools can pickle them)


def _anchor_job(entry: SubjectEntry, heart_rule: str):
    series, mask = _load_subject(entry)
    return anchors_mod.extract_anchors(series, mask, heart_rule=heart_rule)


def _segment_job(entry: SubjectEntry, out_dir: str, seg_config: SegmentationConfig):
    """Classically mask a subject whose grids ``check_subject_grids`` has passed.

    Returns ``(entry naming the mask written, None)``, or ``(None, reason)`` when segmentation fails.
    Only pre and the first post are loaded: they are all the chain reads.
    """
    series = load_series(dataclasses.replace(entry, posts=entry.posts[:1]))
    try:
        mask = classical_mask(series, seg_config)
    except SegmentationError as exc:
        return None, str(exc)
    return save_subject(entry, out_dir, mask=mask), None


def _normalize_job(
    entry: SubjectEntry,
    model: NormalizationModel,
    out_dir: str,
    heart_rule: str,
    clamp_floor: float,
    mapping_dir: str | None,
):
    series, mask = _load_subject(entry)
    anchor_set = anchors_mod.extract_anchors(series, mask, heart_rule=heart_rule)
    mapping = build_mapping(anchor_set, model, clamp_floor=clamp_floor)
    written = save_subject(entry, out_dir, apply_mapping(mapping, series).volumes)
    if mapping_dir is not None:
        curve = export_mapping_curve(mapping)
        write_mapping_curve(Path(mapping_dir) / f"{entry.subject_id}_mapping.csv", curve)
    return written


def _features_job(entry: SubjectEntry, denoise_radius: int | None, normalized: bool):
    series, mask = _load_subject(entry)
    return extract_features(series, mask, denoise_radius=denoise_radius, normalized=normalized)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_phantom(args) -> int:
    cfg = phantom_config_from_json(args.config) if args.config else PhantomConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    manifest = generate_phantom(cfg, args.out, jobs=args.jobs)
    log.info("phantom: wrote %d subjects to %s", len(manifest), args.out)
    return 0


def _cmd_segment(args) -> int:
    cli_cfg = load_cli_config(args.config)
    entries = load_manifest(args.manifest)
    unmasked = [entry for entry in entries if entry.mask is None]
    masks = [subject_file(entry.subject_id, args.out_dir, None) for entry in unmasked]
    check_outputs_spare_inputs(args.manifest, entries, args.out_dir, masks)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Every subject's grids are checked here, from the sidecars; a mask the
    # manifest gives is then referenced, and only the others are segmented.
    for entry in entries:
        check_subject_grids(entry)
    job = partial(_segment_job, out_dir=str(out), seg_config=cli_cfg.segmentation)
    outcomes = dict(zip((entry.subject_id for entry in unmasked), run_parallel(job, unmasked, args.jobs)))
    masked, skipped = [], []
    for entry in entries:
        result, reason = outcomes.get(entry.subject_id, (entry, None))
        if reason is None:
            masked.append(result)
        else:
            skipped.append((entry.subject_id, reason))
    if not masked:
        reasons = "; ".join(f"{sid}: {reason}" for sid, reason in skipped)
        raise ValidationError(f"segmentation failed for every subject: {reasons}")
    # Skips are logged here, not in the workers, so a run that fails prints only its error line.
    for sid, reason in skipped:
        log.warning("subject %s skipped: %s", sid, reason)
    save_manifest(out, masked)
    log.info("segment: %d/%d subjects masked", len(masked), len(entries))
    return 0


def _cmd_train(args) -> int:
    cli_cfg = load_cli_config(args.config)
    manifest = load_manifest(args.manifest)
    job = partial(_anchor_job, heart_rule=cli_cfg.heart_rule)
    anchor_sets = run_parallel(job, manifest, args.jobs)
    model = train_archetype(anchor_sets)
    save_model(model, args.out)
    if args.emit_anchors:
        atomic_write_json(args.emit_anchors, [dataclasses.asdict(a) for a in anchor_sets])
    log.info("train: archetype %s from %d subjects", model.archetype_subject_id, len(anchor_sets))
    return 0


def _cmd_normalize(args) -> int:
    cli_cfg = load_cli_config(args.config)
    manifest = load_manifest(args.manifest)
    model = load_model(args.model)  # fail fast before any per-subject work
    volumes = [subject_file(e.subject_id, args.out_dir, k) for e in manifest for k in range(len(e.posts) + 1)]
    check_outputs_spare_inputs(args.manifest, manifest, args.out_dir, volumes)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.emit_mapping:
        Path(args.emit_mapping).mkdir(parents=True, exist_ok=True)
    job = partial(
        _normalize_job,
        model=model,
        out_dir=str(out),
        heart_rule=cli_cfg.heart_rule,
        clamp_floor=cli_cfg.clamp_floor,
        mapping_dir=args.emit_mapping,
    )
    written = run_parallel(job, manifest, args.jobs)
    save_manifest(out, written)
    log.info("normalize: %d subjects written to %s", len(written), out)
    return 0


def _cmd_features(args) -> int:
    cli_cfg = load_cli_config(args.config)
    _check_denoise_radius(args.denoise_median, "--denoise-median")
    manifest = load_manifest(args.manifest)
    radius = args.denoise_median if args.denoise_median is not None else cli_cfg.denoise_radius
    job = partial(_features_job, denoise_radius=radius, normalized=args.normalized)
    rows = run_parallel(job, manifest, args.jobs)
    write_features_csv(args.out, rows)
    log.info("features: %d subjects -> %s", len(rows), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    cli_cfg = load_cli_config(args.config)
    manifest = load_manifest(args.manifest)
    before = read_features_csv(args.before)
    after = read_features_csv(args.after)
    key = args.group_by or cli_cfg.group_by
    if key is None:
        raise ConfigError("evaluate needs --group-by or an evaluation.group_by config entry")
    spec = eval_mod.GroupingSpec(key=key, threshold=cli_cfg.group_threshold)
    manifest_after = load_manifest(args.manifest_after) if args.manifest_after else None
    report = eval_mod.build_report(
        manifest, before, after, spec, manifest_after=manifest_after
    )
    atomic_write_json(args.out, report)
    eval_mod.write_report_csv(Path(args.out).with_suffix(".csv"), report)
    log.info("evaluate: report written to %s", args.out)
    return 0


def _cmd_auc(args) -> int:
    rows = read_features_csv(args.features)
    labels = read_labels_csv(args.labels)
    missing = [r.subject_id for r in rows if r.subject_id not in labels]
    if missing:
        raise ValidationError(f"subjects missing from labels file: {missing}")
    lines = ["feature,auc,n"]
    for name, (auc, n, exc) in eval_mod.feature_aucs(rows, labels).items():
        if exc is not None:
            log.warning("feature %s: AUC unavailable (%s)", name, exc)
        lines.append(f"{name},{'' if auc is None else repr(auc)},{n}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    log.info("auc: written to %s", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as validation failures, not SystemExit."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(sub, jobs: bool = True, config: bool = True):
    if config:
        sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("-v", "--verbose", action="count", default=0)
    if jobs:
        sub.add_argument("--jobs", type=int, default=default_jobs(), help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcenorm", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("phantom", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_phantom)

    p = commands.add_parser("segment", help="produce tissue masks per subject")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_segment)

    p = commands.add_parser("train", help="select the archetype subject and save the model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-anchors", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = commands.add_parser("normalize", help="apply the model's mapping to every subject")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--emit-mapping", default=None, help="directory for mapping curve CSVs")
    _add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = commands.add_parser("features", help="extract the 15-feature vector per subject")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--denoise-median", type=int, default=None, metavar="R")
    p.add_argument("--normalized", action="store_true", help="mark rows as post-normalization")
    _add_common(p)
    p.set_defaults(func=_cmd_features)

    p = commands.add_parser("evaluate", help="compare feature distributions across groups")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--group-by", choices=list(eval_mod.GROUP_KEYS), default=None)
    p.add_argument("--manifest-after", default=None, help="normalized-dataset manifest")
    p.add_argument("--out", required=True)
    _add_common(p, jobs=False)
    p.set_defaults(func=_cmd_evaluate)

    p = commands.add_parser("auc", help="single-feature ROC AUC against binary labels")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, jobs=False, config=False)
    p.set_defaults(func=_cmd_auc)

    return parser


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.WARNING - 10 * min(args.verbose, 2),
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except MissingInputError as exc:
        print(f"error[io]: {_one_line(exc)}", file=sys.stderr)
        return 2
    except DcenormError as exc:
        print(f"error[validation]: {_one_line(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {_one_line(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
