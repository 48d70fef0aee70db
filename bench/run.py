"""Benchmark of the dcenorm README walkthrough on three workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload desk-cohort --seed 0 --seconds 20 --trace 0

``--trace 0`` times the walkthrough as users run it: each subcommand is
its own ``python -m dcenorm`` process with ``--jobs 2``, and the
end-to-end metrics come from wall clocks around those processes.
``--trace 1`` runs the same workload in this process through
``dcenorm.cli.main`` with ``--jobs 1``, alternating untraced and traced
passes, and reports per-layer metrics from the spans that ``tracing``
records. Either way the outputs are checked after timing (``checks``);
on ``noisy-denoise`` at any seed but 0 the run then also walks and
checks the acceptance suite's seed-0 cohort, untimed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its sample count, the failures, and the
machine the numbers come from. The program is imported from ``src/``
of the checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"

JOBS = 2  # worker processes per timed subcommand: nproc of the reference machine
MIN_REPS = 2  # timed repetitions (phantom plus walkthrough) per run, at least
SHORT_LAUNCHES = 3  # launches of phantom and of segment per timed repetition
STARTUP_LAUNCHES = 5  # fresh ``python -m dcenorm --help`` runs behind cli.startup_s
STEP_TIMEOUT_S = 170.0
SOURCE_DATE_EPOCH = "0"
MIB = float(2 ** 20)

sys.path.insert(0, str(BENCH))
from workloads import (  # noqa: E402
    SUITE_SEED, WORKLOADS, Layout, phantom_args, prepare_inputs, steps, with_jobs, write_phantom_config,
)


def use_source_tree() -> None:
    """Import dcenorm from this checkout's ``src/``, or stop."""
    if not (SRC / "dcenorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no dcenorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH


# ---------------------------------------------------------------------------
# subcommand runners


@dataclass(frozen=True)
class Launch:
    wall_s: float
    ok: bool
    detail: str
    maxrss_mb: float = 0.0


def launch(args, layout: Layout, log_name: str) -> Launch:
    """Run ``python -m dcenorm <args>`` to completion.

    ``os.wait4`` reports the peak resident set of the process and of the
    pool workers it waited for.
    """
    logs = layout.root / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-m", "dcenorm", *args]
    with open(logs / f"{log_name}.out", "wb") as out, open(logs / f"{log_name}.err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=layout.root)
        watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    errors = [line for line in (logs / f"{log_name}.err").read_text().splitlines() if line.startswith("error[")]
    ok = proc.returncode == 0 and not errors
    detail = "" if ok else f"exit {proc.returncode}; {' | '.join(errors) or 'no error line'}"
    return Launch(wall, ok, detail, usage.ru_maxrss / 1024.0)


def call_main(args) -> Launch:
    """Run ``dcenorm.cli.main(args)`` in this process."""
    from dcenorm import cli

    captured = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(captured):
            code = cli.main(list(args))
    except Exception as exc:  # an escaped exception is a failed subcommand
        code, captured = -1, io.StringIO(f"error[uncaught]: {type(exc).__name__}: {exc}")
    wall = perf_counter() - t0
    errors = [line for line in captured.getvalue().splitlines() if line.startswith("error[")]
    ok = code == 0 and not errors
    return Launch(wall, ok, "" if ok else f"exit {code}; {' | '.join(errors) or 'no error line'}")


# ---------------------------------------------------------------------------
# timed run: one process per subcommand, tracing off


def launch_repeated(args, layout: Layout, name: str, clear: Path, ops) -> list[Launch] | None:
    """Launch one short subcommand ``SHORT_LAUNCHES`` times, each into a cleared ``clear``.

    A single launch of about a second drifts with the host's load; the
    median of several is steadier. Returns None after a failed launch.
    """
    runs = []
    for _ in range(SHORT_LAUNCHES):
        shutil.rmtree(clear, ignore_errors=True)
        run = launch(args, layout, name)
        if not ops.record(name, run.ok, run.detail):
            return None
        runs.append(run)
    return runs


def timed_run(workload, seed: int, seconds: float, layout: Layout, ops) -> tuple[dict, dict]:
    write_phantom_config(workload, layout)
    walk = steps(workload, layout)
    samples: dict[str, list[float]] = {k: [] for k in ("setup_s", "pipeline_s", "segment_s", "normalize_s", "features_s")}
    peak_mb = 0.0
    t0 = perf_counter()
    while len(samples["pipeline_s"]) < MIN_REPS or perf_counter() - t0 < seconds:
        shutil.rmtree(layout.out, ignore_errors=True)
        phantoms = launch_repeated(with_jobs(phantom_args(workload, layout, seed), True, JOBS),
                                   layout, "phantom", layout.data, ops)
        if phantoms is None:
            break
        samples["setup_s"] += [run.wall_s for run in phantoms]
        prepare_inputs(workload, layout)
        per_step: dict[str, float] = {}
        failed = False
        for step in walk:
            args = with_jobs(step.args, step.takes_jobs, JOBS)
            if step.name == "segment":
                runs = launch_repeated(args, layout, step.name, layout.out, ops) or []
                failed |= not runs
                samples["segment_s"] += [run.wall_s for run in runs]
            else:
                runs = [launch(args, layout, step.name)]
                failed |= not ops.record(step.name, runs[0].ok, runs[0].detail)
            # a repeated step counts once, at the median of its launches
            per_step[step.name] = per_step.get(step.name, 0.0) + _median([run.wall_s for run in runs])
            peak_mb = max([peak_mb, *(run.maxrss_mb for run in runs)])
        if failed:
            break
        samples["pipeline_s"].append(sum(per_step.values()))
        samples["normalize_s"].append(per_step["normalize"])
        samples["features_s"].append(per_step["features"])

    written = sum(p.stat().st_size for p in layout.out.rglob("*") if p.is_file()) / MIB
    metrics = {key: (_median(samples[key]), "s") for key in ("setup_s", "pipeline_s", "segment_s", "normalize_s", "features_s")}
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    metrics["written_mb"] = (written, "MB")
    return metrics, samples


# ---------------------------------------------------------------------------
# traced run: one process, alternating untraced and traced passes


def in_process_pass(workload, seed: int, layout: Layout, ops, tracer=None) -> tuple[float, int]:
    """Phantom plus walkthrough through ``cli.main``; returns (walkthrough s, subjects)."""
    from tracing import installed

    shutil.rmtree(layout.data, ignore_errors=True)
    shutil.rmtree(layout.out, ignore_errors=True)
    with installed(tracer) if tracer is not None else contextlib.nullcontext():
        run = call_main(with_jobs(phantom_args(workload, layout, seed), True, 1))
        ops.record("phantom", run.ok, run.detail)
        prepare_inputs(workload, layout)
        t0 = perf_counter()
        for step in steps(workload, layout):
            run = call_main(with_jobs(step.args, step.takes_jobs, 1))
            ops.record(step.name, run.ok, run.detail)
        elapsed = perf_counter() - t0
    n_subjects = len(json.loads((layout.data / "manifest.json").read_text()))
    return elapsed, n_subjects


def traced_run(workload, seed: int, seconds: float, layout: Layout, ops) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics

    write_phantom_config(workload, layout)
    startup = []
    for i in range(STARTUP_LAUNCHES):
        run = launch(["--help"], layout, "help")
        ops.record(f"--help #{i}", run.ok, run.detail)
        startup.append(run.wall_s)

    # The first pass in a process is slower (allocator and lazy-import
    # warm-up); it is run untimed so that it does not bias the overhead.
    in_process_pass(workload, seed, layout, ops)
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    t0 = perf_counter()
    # at least two pairs, so that each side runs first once
    while len(traced) < 2 or perf_counter() - t0 < seconds:
        # alternate which side of the pair runs first
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            tracer = Tracer() if with_trace else None
            elapsed, n_subjects = in_process_pass(workload, seed, layout, ops, tracer)
            if with_trace:
                traced.append(elapsed)
                per_pass.append(layer_metrics(tracer.spans, n_subjects))
            else:
                plain.append(elapsed)

    metrics = {"cli.startup_s": (_median(startup), "s")}
    metrics.update({name: (_median([p[name][0] for p in per_pass]), unit) for name, (_, unit) in per_pass[0].items()})
    metrics["trace.pipeline_s"] = (_median(traced), "s")
    metrics["trace.overhead_frac"] = (_median(traced) / _median(plain) - 1.0, "ratio")
    samples = {"cli.startup_s": startup, "trace.pipeline_s": traced, "untraced_pipeline_s": plain}
    return metrics, samples


# ---------------------------------------------------------------------------
# the acceptance suite's cohort, for the check whose limit is set there


def suite_cohort_check(workload, work: Path, ops) -> None:
    """Run the walkthrough untimed at phantom seed ``SUITE_SEED`` and check it.

    The denoised-F6 limit of the acceptance suite is set on this cohort
    and the program misses it at some other seeds (README.md, known
    defect), so a run at any other seed checks the limit here.
    """
    from checks import check_outputs

    layout = Layout(work / f"{workload.name}-suite")
    shutil.rmtree(layout.root, ignore_errors=True)
    write_phantom_config(workload, layout)
    walk = [("phantom", phantom_args(workload, layout, SUITE_SEED), True)]
    walk += [(step.name, step.args, step.takes_jobs) for step in steps(workload, layout)]
    for name, args, takes_jobs in walk:
        done = launch(with_jobs(args, takes_jobs, JOBS), layout, name)
        if not ops.record(f"suite-cohort {name}", done.ok, done.detail):
            break
        if name == "phantom":
            prepare_inputs(workload, layout)
    else:
        try:
            check_outputs(workload, layout.out, SUITE_SEED, REFERENCE, ops)
        except Exception as exc:  # missing or unreadable outputs fail the checks, not the run
            ops.record("suite-cohort output checks", False, f"{type(exc).__name__}: {exc}")
    shutil.rmtree(layout.root, ignore_errors=True)


# ---------------------------------------------------------------------------
# reporting


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _upper_percentile(values):
    """Highest of p75/p90/p99 with at least ten samples beyond it, if any."""
    n = len(values)
    for q in (99, 90, 75):
        if n * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def _sample_note(values) -> str:
    if not values:
        return ""
    note = f"  median of {len(values)}"
    upper = _upper_percentile(values)
    if upper is not None:
        note += f", p{upper[0]} {upper[1]:.6g}"
    return note + f"  [{' '.join(f'{v:.4g}' for v in values)}]"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dcenorm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "jobs": 1 if trace else JOBS,
        "cache": "warm: the page cache is never dropped, so every figure is a warm-cache figure",
    }


def run(workload, seed: int, seconds: float, trace: bool, work: Path = WORK):
    """One benchmark run; returns (result line dict, report lines)."""
    from checks import Operations, check_outputs

    layout = Layout(work / workload.name)
    shutil.rmtree(layout.root, ignore_errors=True)
    layout.root.mkdir(parents=True)
    os.environ["TMPDIR"] = str(layout.root / "tmp")
    (layout.root / "tmp").mkdir()

    ops = Operations()
    runner = traced_run if trace else timed_run
    metrics, samples = runner(workload, seed, seconds, layout, ops)
    try:
        check_outputs(workload, layout.out, seed, REFERENCE, ops)
    except Exception as exc:  # missing or unreadable outputs fail the checks, not the run
        ops.record("output checks", False, f"{type(exc).__name__}: {exc}")
    # Deleted before the kernel writes them back, the volumes never reach
    # the disk, so one run's outputs do not load the next run's I/O.
    shutil.rmtree(layout.data, ignore_errors=True)
    shutil.rmtree(layout.out, ignore_errors=True)
    if workload.f6_ks_below is not None and seed != SUITE_SEED:
        suite_cohort_check(workload, work, ops)

    lines = [f"env {json.dumps(environment(seed, trace), sort_keys=True)}"]
    lines.append(
        f"{workload.name} seed {seed} {'traced' if trace else 'timed'}: "
        f"{ops.attempted} operations, {len(ops.failures)} failed, "
        f"failed_frac {len(ops.failures) / ops.attempted:.4g} ratio"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<42} {value:>14.6g} {unit}{_sample_note(samples.get(name))}")
    for name in (n for n in samples if n not in metrics):
        lines.append(f"  {name:<42} {_median(samples[name]):>14.6g} s{_sample_note(samples[name])}  (not reported)")
    lines += [f"note: {n}" for n in ops.notes]
    lines += [f"FAILED {f}" for f in ops.failures]
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
