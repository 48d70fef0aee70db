#!/usr/bin/env bash
# Golden outputs: run the same dcenorm commands from two source trees and
# compare everything they write, byte for byte.
#
#   .github/golden-outputs.sh BASE HEAD [STEP]
#     BASE and HEAD are source trees, or git revisions, which are
#     extracted with git archive. STEP is one of walkthrough,
#     classical-masks, denoised, anchors, configured and errors; without
#     it every step runs. Exits 1 when a run fails or an output differs.
#   .github/golden-outputs.sh commands README
#     Prints the README's walkthrough commands, one per line.
#
# Work goes to $RUNNER_TEMP/golden-outputs ($TMPDIR or /tmp outside CI).
# Every manifest dcenorm writes is relative, so the two sides' output
# directories compare as wholes.
set -uo pipefail
export SOURCE_DATE_EPOCH=0

commands() {  # README
  awk '/^## Pipeline walkthrough/ {on = 1} on && /^```sh/ {block = 1; next} block && /^```/ {exit} block' "$1" \
    | sed -e ':a' -e '/\\$/N; s/\\\n//; ta'
}
if [ "${1:-}" = commands ]; then commands "$2"; exit; fi

root="${RUNNER_TEMP:-${TMPDIR:-/tmp}}/golden-outputs"
mkdir -p "$root" || exit 1
source_tree() {  # a directory as it is; a revision extracted once
  if [ -d "$1" ]; then (cd "$1" && pwd); return; fi
  local sha dir
  sha=$(git rev-parse --verify "$1^{commit}") || return 1
  dir="$root/tree-$sha"
  if [ ! -d "$dir" ]; then
    rm -rf "$dir.part" && mkdir "$dir.part" && git archive "$sha" | tar -x -C "$dir.part" && mv "$dir.part" "$dir" || return 1
  fi
  echo "$dir"
}
base=$(source_tree "$1") && head=$(source_tree "$2") || exit 1

run() { PYTHONPATH="$tree/src" python -m dcenorm "$@"; }
drop_masks() {  # manifest, copy written without its masks, so that segment runs the classical chain
  python -c "import json, pathlib, sys; r = json.loads(pathlib.Path(sys.argv[1]).read_text()); [e.pop('mask', None) for e in r]; pathlib.Path(sys.argv[2]).write_text(json.dumps(r))" "$1" "$2"
}

# The README's walkthrough, as written, from an empty directory.
produce_walkthrough() {
  (cd "$1" && commands "$tree/README.md" | while read -r command; do
    PYTHONPATH="$tree/src" python -m $command < /dev/null || exit 1
  done)
}

# The default phantom, and the two-subject 256x256x60 phantom of the
# benchmark's clinical-pair workload, each with its masks dropped, so that
# segment runs the classical chain on every subject. Features on those
# masks, plain and median filtered, take the path of masks without a tumor
# label and with classical fat and dense regions. train and normalize run
# on those masks too: the clinical pair's normalized volumes are the only
# compared volumes that span many mapping blocks.
classical() {  # out, extra phantom flags
  run phantom --out "$1/data" --seed 0 "${@:2}" && drop_masks "$1/data/manifest.json" "$1/data/nomask.json" &&
    run segment --manifest "$1/data/nomask.json" --out-dir "$1/masks" &&
    run train --manifest "$1/masks/manifest.json" --out "$1/model.json" &&
    run normalize --manifest "$1/masks/manifest.json" --model "$1/model.json" --out-dir "$1/norm" &&
    run features --manifest "$1/masks/manifest.json" --out "$1/features.csv" &&
    run features --manifest "$1/masks/manifest.json" --out "$1/denoised.csv" --denoise-median 1
}
clinical_config() {  # writes the two-subject 256x256x60 phantom's config to $root/clinical.json
  echo '{"dims": [256, 256, 60], "groups": [{"name": "A", "n_subjects": 1}, {"name": "B", "n_subjects": 1, "scale": 1.5, "offset": 50.0, "te_ms": 2.6, "tr_ms": 5.2, "field_t": 3.0}]}' > "$root/clinical.json"
}
produce_classical_masks() {
  clinical_config && classical "$1/default" && classical "$1/clinical" --config "$root/clinical.json" &&
    ls "$1"/*/masks/*_mask.raw "$1"/*/norm/*_post3.raw > /dev/null
}

# The default cohort with group B at noise_sigma 10, median filtered before
# and after normalization: the only path through the median filter. At seed
# 8 the archetype is a noise_sigma 10 subject, so the normalized cohort's
# maps are not one affine map. Radius 2 runs the sorting kernel.
noisy() {  # out, seed, then each median radius to extract features with
  local out=$1 seed=$2 r
  shift 2
  run phantom --out "$out/data" --seed "$seed" --config "$root/noisy.json" &&
    run train --manifest "$out/data/manifest.json" --out "$out/model.json" &&
    run normalize --manifest "$out/data/manifest.json" --model "$out/model.json" --out-dir "$out/norm" || return 1
  for r in "$@"; do
    run features --manifest "$out/data/manifest.json" --out "$out/before-r$r.csv" --denoise-median "$r" &&
      run features --manifest "$out/norm/manifest.json" --out "$out/after-r$r.csv" --normalized --denoise-median "$r" ||
      return 1
  done
}
produce_denoised() {
  echo '{"groups": [{"name": "A", "n_subjects": 20}, {"name": "B", "n_subjects": 20, "scale": 1.5, "offset": 50.0, "te_ms": 2.6, "tr_ms": 5.2, "field_t": 3.0, "noise_sigma": 10.0}]}' > "$root/noisy.json"
  noisy "$1/seed0" 0 1 2 && noisy "$1/seed8" 8 1
}

# train --emit-anchors, which no walkthrough step runs, on the seed-0 phantom
# and on the clinical-pair phantom, each with its ground-truth masks. On the
# seed-0 phantom only air is larger than the selector's sample; on the
# clinical pair every tissue is, so each anchor is selected by blocked passes.
anchors() {  # out, extra phantom flags
  run phantom --out "$1/data" --seed 0 "${@:2}" &&
    run train --manifest "$1/data/manifest.json" --out "$1/model.json" --emit-anchors "$1/anchors.json"
}
produce_anchors() {
  clinical_config && anchors "$1/default" && anchors "$1/clinical" --config "$root/clinical.json"
}

# The walkthrough's stages on the seed-0 phantom with its masks dropped,
# with one --config file given to segment and evaluate, the two stages
# that read a setting: no other step passes a CLI --config. The file
# holds only keys that both trees accept, each set off its default.
# auc runs on the classical masks' features, where the tumor features
# have no values, so auc.csv holds empty cells.
produce_configured() {
  local config="$root/configured.json"
  echo '{"segmentation": {"air_fraction": 0.08, "morphology_radius": 2}, "evaluation": {"threshold": 2.2}}' > "$config"
  run phantom --out "$1/data" --seed 0 && drop_masks "$1/data/manifest.json" "$1/data/nomask.json" &&
    run segment --manifest "$1/data/nomask.json" --out-dir "$1/masks" --config "$config" &&
    run train --manifest "$1/masks/manifest.json" --out "$1/model.json" &&
    run normalize --manifest "$1/masks/manifest.json" --model "$1/model.json" --out-dir "$1/norm" &&
    run features --manifest "$1/masks/manifest.json" --out "$1/before.csv" &&
    run features --manifest "$1/norm/manifest.json" --out "$1/after.csv" --normalized &&
    run evaluate --before "$1/before.csv" --after "$1/after.csv" --manifest "$1/masks/manifest.json" \
      --manifest-after "$1/norm/manifest.json" --group-by te --out "$1/report.json" --config "$config" &&
    run auc --features "$1/before.csv" --labels "$1/data/labels.csv" --out "$1/auc.csv"
}

# Runs that must fail, from the step's directory with relative paths: each
# case's stderr and exit code go to cases/<name>.txt, so the error line and
# the exit code of every case are compared. The cases reach each kind of
# failure the command line reports: a bad config, flag, manifest, mask,
# mask grid, volume or model file, a subject that cannot be segmented or
# mapped, a breast whose intensity histogram is one value (fat, dense and
# tumor alike, no noise), a missing file and a NaN voxel. features and
# evaluate load a subject's volumes one at a time, so their cases reach
# those loaders: a mask on another grid, an illegal mask label, no mask
# and a NaN voxel in post2. Every stage checks the grids from the
# sidecars before it loads the mask: train on a first post on another
# grid names that post's file, and on a mask that is both on another
# grid and holds an illegal label reports the grid. A manifest, a sidecar
# and a labels CSV that are not UTF-8 each name the file, and a payload
# path that is a directory is an I/O failure. A FIFO where normalize would
# write the second subject's pre is refused before the first subject is
# written (out-dir-fifo; the FIFO is removed after the case, so that the
# two sides' directories compare). One anchor and target rule: train
# refuses a subject whose constant pre ties its air, fat and dense anchors
# (train-degenerate-anchors), as normalize does (degenerate-anchors), and
# normalize refuses a model whose fat and dense targets are equal
# (equal-targets). A case that exits 0 fails the step.
damage() {  # writes the damaged inputs of the errors step into the current directory
  python - <<'PY'
import json, pathlib
import numpy as np

here = pathlib.Path(".")
records = [
    dict(r, pre=f"data/{r['pre']}", posts=[f"data/{p}" for p in r["posts"]], mask=f"data/{r['mask']}")
    for r in json.loads((here / "data" / "manifest.json").read_text())
]
record = records[0]

def volume(name, source, payload):  # a copy of the volume ``source`` with a new payload
    (here / f"{name}.json").write_text((here / source).read_text())
    (here / f"{name}.raw").write_bytes(payload)

def payload(source, dtype):
    return np.fromfile(here / source.replace(".json", ".raw"), dtype)

def manifest(name, **fields):
    entry = {key: value for key, value in dict(record, **fields).items() if value is not None}
    (here / name).write_text(json.dumps([entry]))

pre, mask = payload(record["pre"], "<f4"), payload(record["mask"], "u1")
first = np.arange(pre.size) == 0
volume("nan_pre", record["pre"], np.where(first, np.nan, pre).astype("<f4").tobytes())
manifest("nan.json", pre="nan_pre.json")
post2 = payload(record["posts"][1], "<f4")
volume("nan_post2", record["posts"][1], np.where(first, np.nan, post2).astype("<f4").tobytes())
manifest("nan-post2.json", posts=[record["posts"][0], "nan_post2.json", *record["posts"][2:]])
volume("flat_pre", record["pre"], np.full_like(pre, 7.0).tobytes())
volume("flat_post1", record["posts"][0], np.full_like(pre, 14.0).tobytes())
manifest("flat.json", pre="flat_pre.json")
manifest("unsegmentable.json", pre="flat_pre.json", posts=["flat_post1.json"], mask=None)
volume("label_mask", record["mask"], np.where(first, 9, mask).astype("u1").tobytes())
manifest("label.json", mask="label_mask.json")
volume("nofat_mask", record["mask"], np.where(mask == 2, 0, mask).astype("u1").tobytes())
manifest("nofat.json", mask="nofat_mask.json")
def regridded(name, source, payload):  # a copy of the volume ``source`` with twice its spacing and a new payload
    sidecar = json.loads((here / source).read_text())
    (here / f"{name}.json").write_text(json.dumps(dict(sidecar, spacing_mm=[2 * s for s in sidecar["spacing_mm"]])))
    (here / f"{name}.raw").write_bytes(payload)

regridded("grid_mask", record["mask"], mask.tobytes())
manifest("grid.json", mask="grid_mask.json")
regridded("grid_post1", record["posts"][0], (here / record["posts"][0].replace(".json", ".raw")).read_bytes())
manifest("post-grid.json", posts=["grid_post1.json", *record["posts"][1:]])
regridded("grid_label_mask", record["mask"], np.where(first, 9, mask).astype("u1").tobytes())
manifest("two-defects.json", mask="grid_label_mask.json")
# Both subjects, the first with the mask on another grid and the second in the high echo-time group,
# so that evaluate reaches the tissue summary, which loads the masks.
(here / "evaluate-grid.json").write_text(json.dumps([dict(record, mask="grid_mask.json"), dict(records[1], te_ms=2.6)]))
volume("short_post1", record["posts"][0], (here / record["posts"][0].replace(".json", ".raw")).read_bytes()[:-1])
manifest("short.json", posts=["short_post1.json", *record["posts"][1:]])
model = json.loads((here / "model.json").read_text())
(here / "version-model.json").write_text(json.dumps(dict(model, format_version=999)))
(here / "equal-model.json").write_text(json.dumps(dict(model, m_dense=model["m_fat"])))
(here / "falling-model.json").write_text(json.dumps(dict(model, m_heart=-1000.0)))
(here / "unknown-key.json").write_text('{"segmentation": {"colour": 1}}')
(here / "small-phantom.json").write_text('{"dims": [4, 4, 4]}')
(here / "entry.json").write_text('[{"subject_id": "s0"}]')
(here / "parse.json").write_text('[\n{"subject_id": }\n]')
(here / "not-utf8.json").write_bytes(b"\xff" + (here / "entry.json").read_bytes())
(here / "latin_pre.json").write_bytes(b"\xff" + (here / record["pre"]).read_bytes())
(here / "latin_pre.raw").write_bytes((here / record["pre"].replace(".json", ".raw")).read_bytes())
manifest("sidecar-not-utf8.json", pre="latin_pre.json")
(here / "labels-not-utf8.csv").write_bytes(b"subject_id,label\nA000,1\nA\xff01,0\n")
(here / "dir_post1.json").write_text((here / record["posts"][0]).read_text())
(here / "dir_post1.raw").mkdir()
manifest("payload-dir.json", posts=["dir_post1.json", *record["posts"][1:]])
PY
}
fail() {  # case name, then the arguments of a dcenorm run that must fail, with --jobs 1 where it takes one
  local name=$1 rc jobs=(--jobs 1)
  shift
  case $1 in evaluate | auc) jobs=() ;; esac
  run "$@" ${jobs[@]+"${jobs[@]}"} > /dev/null 2> "cases/$name.txt"
  rc=$?
  echo "exit $rc" >> "cases/$name.txt"
  [ "$rc" -ne 0 ] || { echo "golden-outputs: errors case $name exited 0" >&2; return 1; }
}
produce_errors() {
  (cd "$1" && mkdir cases &&
    echo '{"dims": [32, 32, 16], "groups": [{"name": "A", "n_subjects": 2}]}' > phantom.json &&
    run phantom --out data --config phantom.json --jobs 1 &&
    run train --manifest data/manifest.json --out model.json --jobs 1 &&
    run features --manifest data/manifest.json --out features.csv --jobs 1 && damage &&
    echo '{"dims": [48, 48, 12], "intensities": {"fat": 400.0, "dense": 400.0, "tumor": 400.0}, "groups": [{"name": "A", "n_subjects": 2, "noise_sigma": 0.0}]}' > flat-phantom.json &&
    run phantom --out flat --config flat-phantom.json --jobs 1 && drop_masks flat/manifest.json flat/nomask.json &&
    fail config-key segment --manifest data/manifest.json --out-dir seg --config unknown-key.json &&
    fail config-flag train --manifest data/manifest.json --out m.json --bogus &&
    fail phantom-config phantom --config small-phantom.json --out small &&
    fail manifest-entry train --manifest entry.json --out m.json &&
    fail manifest-parse train --manifest parse.json --out m.json &&
    fail mask-label train --manifest label.json --out m.json &&
    fail mask-grid train --manifest grid.json --out m.json &&
    fail train-post-grid train --manifest post-grid.json --out m.json &&
    fail train-mask-two-defects train --manifest two-defects.json --out m.json &&
    fail volume-payload segment --manifest short.json --out-dir seg &&
    fail model-version normalize --manifest data/manifest.json --model version-model.json --out-dir norm &&
    fail segmentation segment --manifest unsegmentable.json --out-dir seg &&
    fail degenerate-breast segment --manifest flat/nomask.json --out-dir seg &&
    fail empty-tissue train --manifest nofat.json --out m.json &&
    fail degenerate-anchors normalize --manifest flat.json --model model.json --out-dir norm &&
    fail falling-targets normalize --manifest data/manifest.json --model falling-model.json --out-dir norm &&
    fail missing-file train --manifest missing.json --out m.json &&
    fail nan-voxel train --manifest nan.json --out m.json &&
    fail features-mask-grid features --manifest grid.json --out f.csv &&
    fail features-mask-label features --manifest label.json --out f.csv &&
    fail features-no-mask features --manifest unsegmentable.json --out f.csv &&
    fail features-nan-post2 features --manifest nan-post2.json --out f.csv &&
    fail evaluate-mask-grid evaluate --before features.csv --after features.csv --manifest evaluate-grid.json \
      --group-by te --out report.json &&
    fail manifest-not-utf8 train --manifest not-utf8.json --out m.json &&
    fail sidecar-not-utf8 train --manifest sidecar-not-utf8.json --out m.json &&
    fail labels-not-utf8 auc --features features.csv --labels labels-not-utf8.csv --out auc.csv &&
    fail payload-dir features --manifest payload-dir.json --out f.csv &&
    mkdir fifo && mkfifo fifo/A001_pre.raw &&
    fail out-dir-fifo normalize --manifest data/manifest.json --model model.json --out-dir fifo && rm fifo/A001_pre.raw &&
    fail equal-targets normalize --manifest data/manifest.json --model equal-model.json --out-dir norm &&
    fail train-degenerate-anchors train --manifest flat.json --out m.json)
}

status=0
for step in ${3:-walkthrough classical-masks denoised anchors configured errors}; do
  for side in base head; do
    tree=${!side}
    rm -rf "${root:?}/$step-$side" && mkdir "$root/$step-$side" || exit 1
    "produce_${step//-/_}" "$root/$step-$side" || { echo "golden-outputs: $step failed on $side ($tree)" >&2; status=1; }
  done
  diff -r "$root/$step-base" "$root/$step-head" || status=1
done
exit $status
