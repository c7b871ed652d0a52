"""Spans and counts recorded around calls into ctbnlearn's public functions.

Tracing wraps the functions in place: every module attribute of the
``ctbnlearn`` package that is bound to a traced function is rebound to a
wrapper, so calls between the package's own modules are seen too. Spans
(name, start, end, parent) and counts are kept in memory and written out
once, at the end. Only the outermost span of a name is recorded, so a
layer's time is never counted twice when it calls itself through another
traced function (``aggregate_statistics`` calling ``family_tables``).
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute) -> span name. ``learning._flat_e_step`` is the one
# function through which both ``e_step`` and the structural-EM rounds run
# their E-steps, so it is the only way to count every E-step of a fit.
TARGETS = (
    ("ctbnlearn.fileio", "load_model", "fileio.load"),
    ("ctbnlearn.fileio", "load_records", "fileio.load"),
    ("ctbnlearn.model", "amalgamate", "model.amalgamate"),
    ("ctbnlearn.model", "aggregate_statistics", "model.aggregate"),
    ("ctbnlearn.model", "family_tables", "model.aggregate"),
    ("ctbnlearn.inference", "forward_backward", "inference.forward_backward"),
    ("ctbnlearn.inference", "expected_statistics_many", "inference.expected_statistics"),
    ("ctbnlearn.inference", "smoothed_marginal", "inference.smoothed_marginal"),
    ("ctbnlearn.markov", "expm", "markov.expm"),
    ("ctbnlearn.learning", "_flat_e_step", "learning.e_step"),
    ("ctbnlearn.learning", "m_step", "learning.m_step"),
    ("ctbnlearn.learning", "structure_search", "learning.structure_search"),
    ("ctbnlearn.learning", "score_dataset", "learning.score_dataset"),
    ("ctbnlearn.phase", "expand_phases", "phase.expand_phases"),
)
METHOD_TARGETS = (("ctbnlearn.evidence", "ObservedTrajectory", "to_evidence", "evidence.to_evidence"),)

# Per-layer metrics: the busy time of each traced layer, the counts taken
# at its boundary, and the largest E-step cache.
TIMED = (
    "fileio.load", "evidence.to_evidence", "model.amalgamate", "model.aggregate",
    "inference.forward_backward", "inference.expected_statistics",
    "inference.smoothed_marginal", "markov.expm", "learning.e_step",
    "learning.m_step", "learning.structure_search", "learning.score_dataset",
    "phase.expand_phases",
)
COUNTED = (
    "evidence.segments", "inference.forward_backward_calls", "inference.split_segments",
    "inference.rate_boundaries", "inference.quadrature_segments",
    "inference.closed_form_segments", "inference.distinct_masks", "learning.e_step_calls",
)
PER_LAYER = tuple((f"{n}_s", "s") for n in TIMED) + tuple((n, "count") for n in COUNTED) + (
    ("inference.cache_mb", "MB"),
)


def _cache_bytes(cache) -> int:
    total = 0
    for value in vars(cache).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total


def _after_forward_backward(tracer, args, result):
    tracer.counts["inference.forward_backward_calls"] += 1
    tracer.counts["inference.split_segments"] += len(result.seg_dt)
    tracer.counts["inference.rate_boundaries"] += int((result.factor_kind == 1).sum())


def _before_expected_statistics(tracer, args):
    # Segments of positive length restricted to one state have a closed
    # form; every other one needs quadrature. Distinct masks are counted
    # among the quadrature segments of one call, which is the reuse a
    # per-mask cache inside that call could exploit.
    caches = args[0]
    masks = set()
    for cache in caches:
        sizes = cache.seg_masks.sum(axis=1)
        pos = cache.seg_dt > 0.0
        general = np.flatnonzero(pos & (sizes > 1))
        tracer.counts["inference.quadrature_segments"] += general.size
        tracer.counts["inference.closed_form_segments"] += int((pos & (sizes == 1)).sum())
        masks.update(cache.seg_masks[i].tobytes() for i in general)
    tracer.counts["inference.distinct_masks"] += len(masks)
    mb = sum(_cache_bytes(c) for c in caches) / 2**20
    tracer.maxima["inference.cache_mb"] = max(tracer.maxima.get("inference.cache_mb", 0.0), mb)


def _after_to_evidence(tracer, args, result):
    tracer.counts["evidence.segments"] += result.n_segments


def _after_e_step(tracer, args, result):
    tracer.counts["learning.e_step_calls"] += 1


AFTER = {
    "inference.forward_backward": _after_forward_backward,
    "evidence.to_evidence": _after_to_evidence,
    "learning.e_step": _after_e_step,
}
BEFORE = {"inference.expected_statistics": _before_expected_statistics}


class Tracer:
    """In-memory span and count recorder. ``active`` gates recording, so a
    benchmark can trace one repetition of a step and not the others."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.active = False
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list = []

    def begin(self, name: str):
        if not self.active or self._open[name]:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx):
        if idx is None:
            return
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name):
        tracer = self
        before = BEFORE.get(name)
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            if idx is not None and before is not None:
                before(tracer, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if idx is not None and after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every traced function wherever the package binds it."""
        for name in ("ctbnlearn", "ctbnlearn.fileio", "ctbnlearn.cli"):
            importlib.import_module(name)
        modules = [m for k, m in sys.modules.items() if k == "ctbnlearn" or k.startswith("ctbnlearn.")]
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for mod_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[attr]
            setattr(cls, attr, self._wrap(original, name))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        self.active = False

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": dict(self.maxima)}


def merge(parts) -> dict:
    """Combine exported traces of several processes: spans are kept per
    process, counts add up and maxima take the larger value."""
    out = {"processes": [], "counts": Counter(), "maxima": {}}
    for label, part in parts:
        out["processes"].append({"label": label, "spans": part["spans"]})
        out["counts"].update(part["counts"])
        for k, v in part["maxima"].items():
            out["maxima"][k] = max(out["maxima"].get(k, 0.0), v)
    out["counts"] = dict(out["counts"])
    return out


def layer_metrics(merged: dict) -> dict:
    """Per-layer metrics of one traced round: summed time of the outermost
    spans of each layer, the counts, and the largest E-step cache."""
    busy = Counter()
    for proc in merged["processes"]:
        for name, start, end, _ in proc["spans"]:
            if end is not None:
                busy[name] += end - start
    out = {}
    for name in TIMED:
        out[f"{name}_s"] = busy.get(name, 0.0)
    for name in COUNTED:
        out[name] = merged["counts"].get(name, 0)
    out["inference.cache_mb"] = merged["maxima"].get("inference.cache_mb", 0.0)
    return out
