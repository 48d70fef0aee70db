#!/usr/bin/env bash
# Golden outputs: run the same dcenorm commands from two source trees and
# compare everything they write, byte for byte.
#
#   .github/golden-outputs.sh BASE HEAD [STEP]
#     BASE and HEAD are source trees, or git revisions, which are
#     extracted with git archive. STEP is one of walkthrough,
#     classical-masks, denoised, anchors and configured; without it
#     every step runs. Exits 1 when a run fails or an output differs.
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
# label and with classical fat and dense regions.
classical() {  # out, extra phantom flags
  run phantom --out "$1/data" --seed 0 "${@:2}" && drop_masks "$1/data/manifest.json" "$1/data/nomask.json" &&
    run segment --manifest "$1/data/nomask.json" --out-dir "$1/masks" &&
    run features --manifest "$1/masks/manifest.json" --out "$1/features.csv" &&
    run features --manifest "$1/masks/manifest.json" --out "$1/denoised.csv" --denoise-median 1
}
produce_classical_masks() {
  echo '{"dims": [256, 256, 60], "groups": [{"name": "A", "n_subjects": 1}, {"name": "B", "n_subjects": 1, "scale": 1.5, "offset": 50.0, "te_ms": 2.6, "tr_ms": 5.2, "field_t": 3.0}]}' > "$root/clinical.json"
  classical "$1/default" && classical "$1/clinical" --config "$root/clinical.json" &&
    ls "$1"/*/masks/*_mask.raw > /dev/null
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

# train --emit-anchors on the seed-0 phantom: no walkthrough step writes the anchors file.
produce_anchors() {
  run phantom --out "$1/data" --seed 0 &&
    run train --manifest "$1/data/manifest.json" --out "$1/model.json" --emit-anchors "$1/anchors.json"
}

# The walkthrough's stages on the seed-0 phantom with its masks dropped,
# with one --config file given to segment and evaluate, the two stages
# that read a setting: no other step passes a CLI --config. The file
# holds only keys that both trees accept, each set off its default.
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
      --manifest-after "$1/norm/manifest.json" --group-by te --out "$1/report.json" --config "$config"
}

status=0
for step in ${3:-walkthrough classical-masks denoised anchors configured}; do
  for side in base head; do
    tree=${!side}
    rm -rf "${root:?}/$step-$side" && mkdir "$root/$step-$side" || exit 1
    "produce_${step//-/_}" "$root/$step-$side" || { echo "golden-outputs: $step failed on $side ($tree)" >&2; status=1; }
  done
  diff -r "$root/$step-base" "$root/$step-head" || status=1
done
exit $status
