"""Command line front-end.

Subcommands stage the pipeline through files: phantom generation,
segmentation, archetype training, normalization, feature extraction,
evaluation, and single-feature AUC. Every subcommand exits 0 on
success, 1 on a validation failure, and 2 on an I/O failure (missing
inputs, unwritable outputs); failures print exactly one line to stderr
of the form ``error[validation]: ...`` or ``error[io]: ...``.

An optional JSON config file (``--config``) tunes the two stages that
read a setting: ``segment`` reads the section ``segmentation`` and
``evaluate`` the section ``evaluation`` (its ``threshold``). Unknown
sections or keys are rejected by name. Each setting has one way in:
the median-filter radius, the grouping key and the phantom seed come
only from the flags ``--denoise-median``, ``--group-by`` and
``--seed``. ``phantom --config`` takes a phantom description instead;
``train``, ``normalize``, ``features`` and ``auc`` take no config. No
output a run writes may replace a file it reads, and an ``--out-dir``
may hold none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import logging
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import anchors as anchors_mod
from . import evaluation as eval_mod
from .errors import DcenormError, MissingInputError, SubjectError, ValidationError
from .features import extract_features, read_features_csv, write_features_csv
from .manifest import (
    SubjectEntry, check_out_dir_holds_no_input, check_outputs_spare_inputs, check_subject_grids, load_manifest,
    load_series, load_subject_mask, load_volumes, manifest_files, out_dir_files, read_labels_csv, save_manifest,
    save_subject, subject_file,
)
from .mapping import build_mapping, export_mapping_curve, map_buffer, map_volume, write_mapping_curve
from .model import NormalizationModel, load_model, save_model, train_archetype
from .phantom import PhantomConfig, generate_phantom, phantom_config_from_json
from .segmentation import SegmentationConfig, classical_mask
from .util import atomic_write_json, default_jobs, is_number, json_object, read_json, run_parallel, write_csv

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CliConfig:
    segmentation: SegmentationConfig
    group_threshold: float | None = None


_SECTION_KEYS = {
    "segmentation": {f.name for f in dataclasses.fields(SegmentationConfig)},
    "evaluation": {"threshold"},
}


def load_cli_config(path: Path | str | None) -> CliConfig:
    if path is None:
        return CliConfig(segmentation=SegmentationConfig())
    raw = json_object(read_json(path), _SECTION_KEYS, "config", path)
    seg_sec, eval_sec = (
        json_object(raw.get(section, {}), keys, f"config section {section!r}", path)
        for section, keys in _SECTION_KEYS.items()
    )
    seg = SegmentationConfig(**seg_sec)
    threshold = eval_sec.get("threshold")
    if threshold is not None and not is_number(threshold):
        raise ValidationError(f"evaluation.threshold must be a finite number, got {threshold!r}", path=path)
    return CliConfig(segmentation=seg, group_threshold=threshold)


# ---------------------------------------------------------------------------
# per-subject workers (top level so process pools can pickle them)
# Each reads a subject in ``manifest``'s one order: grids, mask, volumes.


def _anchor_job(entry: SubjectEntry):
    """A subject's anchors; only pre and the first post are checked and loaded, since they are all the anchors read."""
    entry = dataclasses.replace(entry, posts=entry.posts[:1])
    check_subject_grids(entry)
    return _anchors(entry)


def _anchors(entry: SubjectEntry):
    """The anchors of a subject whose grids are checked, from its mask, pre and first post."""
    mask = load_subject_mask(entry)
    return anchors_mod.extract_anchors(load_series(dataclasses.replace(entry, posts=entry.posts[:1])), mask)


def _segment_job(entry: SubjectEntry, out_dir: str, seg_config: SegmentationConfig):
    """Classically mask a subject whose grids ``check_subject_grids`` has passed.

    Returns ``(entry naming the mask written, None)``, or ``(None, reason)`` when segmentation fails.
    Only pre and the first post are loaded, as the chain draws them: it reads no other volume, and
    draws the first post only for the heart stage.
    """
    try:
        mask = classical_mask(load_volumes((entry.pre, entry.posts[0])), seg_config)
    except SubjectError as exc:
        return None, str(exc)
    return save_subject(entry, out_dir, mask=mask), None


def _normalize_job(entry: SubjectEntry, model: NormalizationModel, out_dir: str, mapping_dir: str | None):
    """Map a subject's volumes and write them one at a time.

    The grids are checked from the sidecars first, so a subject on two
    grids is refused before any of its volumes is written. The anchors
    are then taken as ``_anchor_job`` takes them, from the mask, pre and
    the first post, which all go once they are taken; their grids are
    not checked a second time. The subject is then read a second time,
    one volume at a time: each is mapped into the one ``map_buffer`` the
    job makes for the subject, written and let go. So the job holds the
    mask and two volumes while it takes the anchors, and after that two
    grids: the buffer and the volume being mapped or loaded.
    """
    voxels = math.prod(check_subject_grids(entry).dims)
    mapping = build_mapping(_anchors(entry), model)
    sid = entry.subject_id
    out = map_buffer(voxels)
    # map, unlike a generator expression, keeps no volume once it has passed on its map.
    maps = map(lambda volume: map_volume(mapping, volume, sid, out), load_volumes((entry.pre, *entry.posts)))
    written = save_subject(entry, out_dir, maps)
    if mapping_dir is not None:
        write_mapping_curve(_mapping_file(mapping_dir, sid), export_mapping_curve(mapping))
    return written


def _mapping_file(mapping_dir: Path | str, subject_id: str) -> Path:
    return Path(mapping_dir) / f"{subject_id}_mapping.csv"


def _features_job(entry: SubjectEntry, denoise_radius: int | None, normalized: bool):
    """A subject's features, with each volume loaded as extraction draws it and let go before the next.

    The mask is loaded before the volumes, since it says what each
    volume gives. So the job holds the mask and one volume, and with a
    filter that volume's filtered grid too.
    """
    check_subject_grids(entry)
    mask = load_subject_mask(entry)
    volumes = load_volumes((entry.pre, *entry.posts))
    return extract_features(entry.subject_id, mask, volumes, len(entry.posts), denoise_radius, normalized)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_phantom(args) -> int:
    cfg = phantom_config_from_json(args.config) if args.config else PhantomConfig()
    manifest = generate_phantom(dataclasses.replace(cfg, seed=args.seed), args.out, jobs=args.jobs)
    log.info("phantom: wrote %d subjects to %s", len(manifest), args.out)
    return 0


def _cmd_segment(args) -> int:
    cli_cfg = load_cli_config(args.config)
    entries = load_manifest(args.manifest)
    unmasked = [entry for entry in entries if entry.mask is None]
    inputs = list(manifest_files(args.manifest, entries))
    check_out_dir_holds_no_input(args.out_dir, inputs)
    masks = (subject_file(entry.subject_id, args.out_dir, None) for entry in unmasked)
    check_outputs_spare_inputs(inputs, {"--out-dir": out_dir_files(args.out_dir, masks)})
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
    manifest = load_manifest(args.manifest)
    outputs = {"--out": [args.out], "--emit-anchors": [args.emit_anchors] if args.emit_anchors else []}
    check_outputs_spare_inputs(manifest_files(args.manifest, manifest), outputs)
    anchor_sets = run_parallel(_anchor_job, manifest, args.jobs)
    model = train_archetype(anchor_sets)
    save_model(model, args.out)
    if args.emit_anchors:
        atomic_write_json(args.emit_anchors, [dataclasses.asdict(a) for a in anchor_sets])
    log.info("train: archetype %s from %d subjects", model.archetype_subject_id, len(anchor_sets))
    return 0


def _cmd_normalize(args) -> int:
    manifest = load_manifest(args.manifest)
    model = load_model(args.model)  # fail fast before any per-subject work
    inputs = [Path(args.model), *manifest_files(args.manifest, manifest)]
    check_out_dir_holds_no_input(args.out_dir, inputs)
    curves = [_mapping_file(args.emit_mapping, e.subject_id) for e in manifest] if args.emit_mapping else []
    volumes = (subject_file(e.subject_id, args.out_dir, k) for e in manifest for k in range(len(e.posts) + 1))
    outputs = {"--out-dir": out_dir_files(args.out_dir, volumes), "--emit-mapping": curves}
    check_outputs_spare_inputs(inputs, outputs)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.emit_mapping:
        Path(args.emit_mapping).mkdir(parents=True, exist_ok=True)
    job = partial(_normalize_job, model=model, out_dir=str(out), mapping_dir=args.emit_mapping)
    written = run_parallel(job, manifest, args.jobs)
    save_manifest(out, written)
    log.info("normalize: %d subjects written to %s", len(written), out)
    return 0


def _cmd_features(args) -> int:
    if args.denoise_median is not None and args.denoise_median < 1:
        raise ValidationError(f"--denoise-median must be an integer >= 1, got {args.denoise_median}")
    manifest = load_manifest(args.manifest)
    check_outputs_spare_inputs(manifest_files(args.manifest, manifest), {"--out": [args.out]})
    job = partial(_features_job, denoise_radius=args.denoise_median, normalized=args.normalized)
    rows = run_parallel(job, manifest, args.jobs)
    write_features_csv(args.out, rows)
    log.info("features: %d subjects -> %s", len(rows), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    cli_cfg = load_cli_config(args.config)
    manifest = load_manifest(args.manifest)
    manifest_after = load_manifest(args.manifest_after) if args.manifest_after else None
    csv_out = Path(args.out).with_suffix(".csv")
    check_outputs_spare_inputs(
        itertools.chain(
            [args.before, args.after],
            manifest_files(args.manifest, manifest),
            manifest_files(args.manifest_after, manifest_after) if args.manifest_after else [],
        ),
        {"--out": [args.out, csv_out]},
    )
    before = read_features_csv(args.before)
    after = read_features_csv(args.after)
    spec = eval_mod.GroupingSpec(key=args.group_by, threshold=cli_cfg.group_threshold)
    report = eval_mod.build_report(
        manifest, before, after, spec, manifest_after=manifest_after
    )
    atomic_write_json(args.out, report)
    eval_mod.write_report_csv(csv_out, report)
    log.info("evaluate: report written to %s", args.out)
    return 0


def _cmd_auc(args) -> int:
    check_outputs_spare_inputs([args.features, args.labels], {"--out": [args.out]})
    rows = read_features_csv(args.features)
    labels = read_labels_csv(args.labels)
    missing = [r.subject_id for r in rows if r.subject_id not in labels]
    if missing:
        raise ValidationError(f"subjects missing from labels file: {missing}")
    table = []
    for name, (auc, n, exc) in eval_mod.feature_aucs(rows, labels).items():
        if exc is not None:
            log.warning("feature %s: AUC unavailable (%s)", name, exc)
        table.append((name, auc, n))
    write_csv(args.out, ["feature", "auc", "n"], table)
    log.info("auc: written to %s", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as validation failures, not SystemExit."""

    def error(self, message):
        raise ValidationError(message)


def _add_common(sub, jobs: bool = True, config: bool = False):
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
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, config=True)
    p.set_defaults(func=_cmd_phantom)

    p = commands.add_parser("segment", help="produce tissue masks per subject")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    _add_common(p, config=True)
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
    p.add_argument("--group-by", choices=list(eval_mod.GROUP_KEYS), required=True)
    p.add_argument("--manifest-after", default=None, help="normalized-dataset manifest")
    p.add_argument("--out", required=True)
    _add_common(p, jobs=False, config=True)
    p.set_defaults(func=_cmd_evaluate)

    p = commands.add_parser("auc", help="single-feature ROC AUC against binary labels")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, jobs=False)
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
