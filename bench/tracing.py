"""Outside-in tracing of dcenorm's layer modules.

``installed(tracer)`` wraps every public function defined in a layer
module and puts the wrapper in place of the function in every
``dcenorm`` module that holds it, the defining module included, so
calls between modules and calls inside one module are both seen. Each
call records a span ``[name, start, end, parent, size]``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``size`` a work
count for the few functions listed in ``_SIZES``. Spans stay in memory;
``layer_metrics`` reduces them to the per-layer figures.

The program runs unchanged: nothing under ``src/`` knows it is traced.
Spans are only correct for calls made in this process, so traced runs
use ``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "util", "manifest", "volume", "phantom", "segmentation",
    "anchors", "model", "mapping", "features", "evaluation",
)

NAME, START, END, PARENT, SIZE = range(5)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts attached to a span: bytes moved, voxels processed.
_SIZES = {
    "volume.load_volume": lambda a, k, r: r.data.nbytes,
    "volume.load_mask": lambda a, k, r: r.labels.nbytes,
    "volume.save_volume": lambda a, k, r: _arg(a, k, 0, "volume").data.nbytes,
    "volume.save_mask": lambda a, k, r: _arg(a, k, 0, "mask").labels.nbytes,
    "volume.median_filter": lambda a, k, r: _arg(a, k, 0, "volume").data.size,
    "mapping.evaluate": lambda a, k, r: int(np.size(_arg(a, k, 1, "x"))),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        size = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every public layer function through ``tracer`` while active."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"dcenorm.{layer}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "dcenorm" and not mod_name.startswith("dcenorm."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                patched.append((module, attr, obj))
    try:
        yield tracer
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


class SpanIndex:
    """Totals, self times and counts over one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.size = defaultdict(int)
        self.durations = defaultdict(list)
        for i, span in enumerate(spans):
            name, d = span[NAME], span[END] - span[START]
            self.total[name] += d
            self.self_time[name] += d - child[i]
            self.calls[name] += 1
            self.size[name] += span[SIZE]
            self.durations[name].append(d)

    def outermost(self, names) -> tuple[int, float]:
        """Calls and time of spans in ``names`` not nested in another of them."""
        names = set(names)
        calls, seconds = 0, 0.0
        for span in self.spans:
            if span[NAME] not in names:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                calls += 1
                seconds += span[END] - span[START]
        return calls, seconds


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_subjects: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass, as ``{name: (value, unit)}``.

    ``*_s`` values are inclusive times summed over calls; ``*_self_s``
    subtract the time of traced calls made inside. Per-subject ratios
    divide by the cohort size of the pass.
    """
    ix = SpanIndex(spans)
    tot, own, calls, size = ix.total, ix.self_time, ix.calls, ix.size
    writes, write_s = ix.outermost(["util.atomic_write_bytes", "util.atomic_write_text", "util.atomic_write_json"])
    loads, load_s = ix.outermost(["volume.load_volume", "volume.load_mask"])
    saves, save_s = ix.outermost(["volume.save_volume", "volume.save_mask"])
    _, curve_s = ix.outermost(["mapping.export_mapping_curve", "mapping.write_mapping_curve"])
    _, csv_s = ix.outermost(["features.write_features_csv", "features.read_features_csv"])
    mib = float(2 ** 20)
    apply_ms = np.asarray(ix.durations["mapping.apply_mapping"] or [0.0]) * 1e3
    return {
        "util.atomic_write_calls": (writes, "count"),
        "util.atomic_write_s": (write_s, "s"),
        "manifest.series_loads_per_subject": (_ratio(calls["manifest.load_series"], n_subjects), "count/subject"),
        "manifest.load_manifest_s": (tot["manifest.load_manifest"], "s"),
        "volume.load_s": (load_s, "s"),
        "volume.load_calls": (loads, "count"),
        "volume.read_mb": ((size["volume.load_volume"] + size["volume.load_mask"]) / mib, "MB"),
        "volume.save_s": (save_s, "s"),
        "volume.save_calls": (saves, "count"),
        "volume.write_mb": ((size["volume.save_volume"] + size["volume.save_mask"]) / mib, "MB"),
        "volume.percentile_s": (tot["volume.percentile"], "s"),
        "volume.median_filter_s": (tot["volume.median_filter"], "s"),
        "volume.median_filter_calls": (calls["volume.median_filter"], "count"),
        "volume.median_filter_ns_per_voxel": (
            _ratio(tot["volume.median_filter"] * 1e9, size["volume.median_filter"]), "ns/voxel"),
        "phantom.generate_s": (tot["phantom.generate_phantom"], "s"),
        "segmentation.classical_mask_s": (tot["segmentation.classical_mask"], "s"),
        "segmentation.classical_mask_calls": (calls["segmentation.classical_mask"], "count"),
        **{
            f"segmentation.{stage}_self_s": (own[f"segmentation.{stage}"], "s")
            for stage in ("segment_air", "segment_breast", "segment_dense", "segment_heart", "body_mask")
        },
        "segmentation.body_mask_calls_per_subject": (
            _ratio(calls["segmentation.body_mask"], n_subjects), "count/subject"),
        "segmentation.external_mask_s": (tot["segmentation.load_external_mask"], "s"),
        "anchors.extract_s": (tot["anchors.extract_anchors"], "s"),
        "anchors.extract_calls_per_subject": (_ratio(calls["anchors.extract_anchors"], n_subjects), "count/subject"),
        "model.train_s": (tot["model.train_archetype"], "s"),
        "model.load_calls": (calls["model.load_model"], "count"),
        "mapping.evaluate_s": (tot["mapping.evaluate"], "s"),
        "mapping.evaluate_voxels": (size["mapping.evaluate"], "count"),
        "mapping.evaluate_ns_per_voxel": (_ratio(tot["mapping.evaluate"] * 1e9, size["mapping.evaluate"]), "ns/voxel"),
        "mapping.apply_self_s": (own["mapping.apply_mapping"], "s"),
        "mapping.curve_s": (curve_s, "s"),
        "mapping.subject_p50_ms": (float(np.percentile(apply_ms, 50)), "ms"),
        "mapping.subject_p75_ms": (float(np.percentile(apply_ms, 75)), "ms"),
        "features.extract_self_s": (own["features.extract_features"], "s"),
        "features.ser_map_s": (tot["features.ser_map"], "s"),
        "features.washin_map_s": (tot["features.washin_map"], "s"),
        "features.washin_calls_per_extract": (
            _ratio(calls["features.washin_map"], calls["features.extract_features"]), "count/call"),
        "features.pe_entropy_s": (tot["features.pe_entropy"], "s"),
        "features.dhog_s": (tot["features.dhog"], "s"),
        "features.csv_s": (csv_s, "s"),
        "evaluation.build_report_s": (tot["evaluation.build_report"], "s"),
        "evaluation.build_report_self_s": (own["evaluation.build_report"], "s"),
    }
