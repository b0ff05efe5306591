"""Spans, counters and the attribute wrappers that produce them.

Tracing lives entirely in the benchmark: `traced()` swaps module and class
attributes of specprune (and NumPy's einsum planner) for thin wrappers that
record a span or bump a counter around the original call, and puts every
original back on exit. The program itself is not modified.

A span is (name, start, end, parent). Spans nest like the call stack of the
single benchmark thread, so a span's self time is its duration minus the
durations of its direct children.
"""

import contextlib
import functools
import time

import numpy as np
import numpy._core.einsumfunc as einsumfunc

from specprune import backend
from specprune import datasets
from specprune import linalg
from specprune import net as nm
from specprune import pipeline as pl
from specprune import spectral as sp
from specprune import stats as st
from specprune import train as tr

ROOT_SPAN = "trace.other"


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def mark(self):
        """Position to pass to `self_times` / `counts_since` later."""
        return len(self.spans), dict(self.counts)

    def self_times(self, since=(0, None)):
        """Self seconds per span name over the spans recorded after `since`."""
        first = since[0]
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out = {}
        for (name, start, end, _), inner in zip(spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def counts_since(self, since):
        before = since[1] or {}
        return {k: v - before.get(k, 0) for k, v in self.counts.items()}

    def to_json(self):
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# wrapper table
# ---------------------------------------------------------------------------

def _push_samples(args):
    _, x, start, stop = args[:4]
    return len(x) if start < stop else 0


def _accumulated_rows(args):
    return np.shape(args[1].samples)[0]


def _train_samples(args):
    return np.shape(args[2])[0]


def _update_bytes(args):
    m = np.shape(args[0])[0]
    return 24 * m * m  # r @ z reads R, the outer product is written, R -= reads+writes


# (owner, attribute, span name or None, {counter: fn of the positional args,
#  or None to count calls})
PATCHES = (
    (pl, "make_two_domain", "datasets.make", {}),
    (datasets, "make_two_domain", "datasets.make", {}),
    (pl, "get_or_train_model", "pipeline.train", {}),
    (pl, "train_model", "pipeline.train", {}),
    (pl, "compress_model", "pipeline.compress", {}),
    (tr, "evaluate", "pipeline.eval", {}),
    (sp, "_push", "spectral.push", {"spectral.push_samples": _push_samples}),
    (sp, "_rows_to_acc", "spectral.moments", {}),
    (st, "finalize", "spectral.moments", {}),
    (st, "accumulate", None, {"stats.rows": _accumulated_rows}),
    (sp, "find_subset", "spectral.select", {}),
    (sp, "recovery_matrix", "spectral.recovery", {}),
    (sp, "reg_node", "spectral.reg", {}),
    (st, "scaling_matrix", "spectral.reg", {}),
    (sp._SubsetReg, "__init__", "spectral.reg", {}),
    (sp._SubsetReg, "candidate_values", "spectral.reg", {}),
    (sp._SubsetReg, "absorb", "spectral.reg", {}),
    (backend, "residual_update", "backend.update",
     {"backend.updates": None, "backend.bytes_computed": _update_bytes}),
    (sp, "cholesky", "linalg.cholesky", {}),
    (linalg, "cholesky", "linalg.cholesky", {}),
    (sp, "apply_plan", "spectral.surgery", {}),
    (nm, "forward", "net.forward", {}),
    (tr, "_forward_train", "train.forward", {"train.samples": _train_samples}),
    (tr, "_backward", "train.backward", {}),
    (tr._Adam, "step", "train.step", {}),
    (tr._Sgd, "step", "train.step", {}),
    (einsumfunc, "einsum_path", None, {"net.einsum_plans": None}),
)


def _wrap(fn, tracer, name, counters):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for counter, size in counters.items():
            tracer.count(counter, 1 if size is None else size(args))
        if name is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _wrap_conv_layer(fn, tracer):
    """apply_layer gets a span only for Conv2D, to keep the per-call cost low."""
    @functools.wraps(fn)
    def wrapper(layer, *args, **kwargs):
        if not isinstance(layer, nm.Conv2D):
            return fn(layer, *args, **kwargs)
        with tracer.span("net.conv"):
            return fn(layer, *args, **kwargs)
    return wrapper


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute) -> value for the block, then restore the
    originals. Yields the list of (owner, attribute, original)."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield saved
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def restored(saved):
    """True when every attribute again holds its original object."""
    return all(owner.__dict__[attr] is original for owner, attr, original in saved)


@contextlib.contextmanager
def traced(tracer):
    """Install every tracing wrapper for the block; yields the saved originals
    so the caller can check `restored(saved)` afterwards."""
    table = [(owner, attr, _wrap(owner.__dict__[attr], tracer, name, counters))
             for owner, attr, name, counters in PATCHES]
    table.append((nm, "apply_layer", _wrap_conv_layer(nm.apply_layer, tracer)))
    with patched(table) as saved:
        yield saved
