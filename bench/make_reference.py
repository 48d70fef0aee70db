"""Write the committed reference outputs that ``checks`` compares against.

Usage, from the root of the repository:

    python3 bench/make_reference.py --seeds 0-9

Runs each workload's walkthrough in this process through
``dcenorm.cli.main`` with ``--jobs 1`` and stores both feature CSVs and
``report.json``, floats rounded to ``checks.REFERENCE_DIGITS``
significant digits, as ``reference/<workload>/seed-<n>.json``. Only
regenerate references for a change that is meant to alter the
program's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from workloads import WORKLOADS, Layout, write_phantom_config


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="N or N-M")
    args = parser.parse_args(argv)
    run.use_source_tree()
    from checks import Operations, snapshot

    for name in sorted(WORKLOADS):
        for seed in args.seeds:
            layout = Layout(run.WORK / f"reference-{name}-{seed}")
            shutil.rmtree(layout.root, ignore_errors=True)
            write_phantom_config(WORKLOADS[name], layout)
            ops = Operations()
            run.in_process_pass(WORKLOADS[name], seed, layout, ops)
            if ops.failures:
                print(f"{name} seed {seed}: {ops.failures}", file=sys.stderr)
                return 1
            target = run.REFERENCE / name / f"seed-{seed}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(json.dumps(snapshot(layout.out), separators=(",", ":")) + "\n")
            shutil.rmtree(layout.root)
            print(f"wrote {target.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
