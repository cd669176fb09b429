"""Spans around calls into ``targetcodes``, recorded from outside the library.

A :class:`Tracer` replaces module attributes (and ``Rng`` methods) that the
library looks up at call time, such as ``targetcodes.network.forward``, with
wrappers that record one span per call: name, start, end, the id of the
span that was open when the call began, and an optional size (rows, draws,
bytes). :meth:`Tracer.restore` puts every original object back. Spans stay
in memory until :meth:`Tracer.write_spans`. No library source is changed.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

# (layer.name, owner path, attribute, size function or None).
# Sizes receive (args, kwargs, result) after the call returns.
SPANS = (
    ("core.rng_normals", "core.Rng", "normals", lambda a, k, r: r.size),
    ("core.rng_shuffle", "core.Rng", "shuffle", None),
    ("data.load_csv", "data", "load_csv", lambda a, k, r: r.num_samples),
    ("data.batches", "data", "batches", None),
    ("network.init_model", "network", "init_model", None),
    ("network.forward", "network", "forward", lambda a, k, r: r[1].shape[0]),
    ("network.backward", "network", "backward", None),
    ("network.sgd_step", "network", "sgd_step", None),
    ("network.save_checkpoint", "network", "save_checkpoint",
     lambda a, k, r: os.path.getsize(a[0])),
    ("network.load_checkpoint", "network", "load_checkpoint", None),
    ("losses.cross_entropy", "losses", "cross_entropy", None),
    ("losses.mse_codes", "losses", "mse_codes", None),
    ("losses.triplet_global", "losses", "triplet_global", None),
    ("losses.corr_consistency", "losses", "corr_consistency", None),
    ("losses.compose_objective", "losses", "compose_objective", None),
    ("codes.activate", "codes", "activate", None),
    ("codes.ste_backward", "codes", "ste_backward", None),
    ("codes.update_codes", "codes", "update_codes", None),
    ("codes.init", "codes", "select_hadamard_codes", None),
    ("codes.init", "codes", "init_learnable_codes", None),
    ("trainer.train", "trainer", "train", None),
    ("trainer.evaluate", "trainer", "evaluate", None),
    ("trainer.export_code_correlation", "trainer", "export_code_correlation", None),
    ("trainer.retrieval_eval", "trainer", "retrieval_eval", None),
)

# Input validation is counted, not timed: it runs about a dozen times per
# step, and a span each would inflate the trace overhead. The modules that
# call it import the helpers by name, so each binding is wrapped.
COUNTS = (
    ("core.validate", "losses", "as_matrix"),
    ("core.validate", "losses", "labels_array"),
    ("core.validate", "network", "as_matrix"),
    ("core.validate", "codes", "as_matrix"),
)

LAYERS = ("core", "data", "network", "losses", "codes", "trainer")


def resolve_owner(package, path: str):
    """``"core.Rng"`` -> the ``Rng`` class of ``package.core``."""
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Install span and count wrappers; keep spans as lists
    ``[id, parent_id, name, start, end, size]`` (parent -1 at top level)."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, owner_path, attr, size in SPANS:
            self._patch(owner_path, attr, self._span_wrapper(name, size))
        for name, owner_path, attr in COUNTS:
            self._patch(owner_path, attr, self._count_wrapper(name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner_path: str, attr: str, make_wrapper) -> None:
        owner = resolve_owner(self.package, owner_path)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _span_wrapper(self, name, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
                spans.append(rec)
                stack.append(rec[0])
                rec[3] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    rec[4] = clock()
                    stack.pop()
                if size is not None:
                    rec[5] = size(args, kwargs, result)
                return result

            wrapper.__wrapped__ = original
            return wrapper

        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            wrapper.__wrapped__ = original
            return wrapper

        return make

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, size in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if size is not None:
                    rec["size"] = size
                fh.write(json.dumps(rec) + "\n")


def summarize(spans, counts) -> dict:
    """Per span name and per layer: calls, busy seconds, self seconds, and
    summed sizes.

    Self time is a span's duration minus the durations of its direct
    children (calls are nested and single-threaded, so children never
    overlap). A layer's busy time counts only spans whose parent lies in
    another layer, so nested calls within one layer are not counted twice.
    """
    child_s = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0})
    layers = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for sid, parent, name, start, end, size in spans:
        dur = end - start
        own = dur - child_s[sid]
        entry = names[name]
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += own
        entry["size"] += size or 0
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += 1
        layer["self_s"] += own
        parent_layer = spans[parent][2].split(".", 1)[0] if parent >= 0 else None
        if parent_layer != name.split(".", 1)[0]:
            layer["busy_s"] += dur
    return {"names": dict(names), "layers": layers, "counts": dict(counts)}
