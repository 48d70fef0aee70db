"""Smoke test of the benchmark at a tiny size.

Usage, from the root of the repository:

    python3 bench/smoke.py

Runs every workload on a small grid (``workloads.tiny``), timed and
traced, and checks that each run emits exactly the metrics that
``BENCHMARK.json`` names, with their units, that every output check
passes (timed runs at seed 1, traced runs at seed 0), and that the
traced counts confirm the workload predictions: the classical
segmentation runs only on the clinical pair and the median filter only
on the noisy cohort. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, tiny


def _expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"smoke: FAIL: {message}")
        raise SystemExit(1)


def main() -> int:
    run.use_source_tree()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workload names")
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name, workload in WORKLOADS.items():
        small = tiny(workload)
        # Timed runs take seed 1, so that the noisy cohort's check on the
        # suite's seed-0 cohort runs as well.
        for trace, seed in ((False, 1), (True, 0)):
            result, lines = run.run(small, seed, 0.0, trace, run.WORK / "smoke")
            label = f"{small.name} trace={int(trace)}"
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            _expect(result["correct"] and result["failed"] == 0, f"{label}: " + " / ".join(
                line for line in lines if line.startswith("FAILED")))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(got == wanted[trace], f"{label}: metrics {sorted(set(got) ^ set(wanted[trace]))} differ")
            if trace:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                segments = metrics["segmentation.classical_mask_calls"] > 0
                filters = metrics["volume.median_filter_calls"] > 0
                _expect(segments == workload.drop_masks, f"{label}: classical_mask calls")
                _expect(filters == (workload.denoise_radius is not None), f"{label}: median_filter calls")
            print(f"smoke: {label}: {result['attempted']} operations passed, {len(got)} metrics")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
