"""Span tracing from outside the program, by wrapping each layer's public entry points.

A span records (name, start, end, parent span, operation id). Spans stay in
compact arrays in memory and are written when the run ends; self time is a
span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import json
import os
from array import array
from time import perf_counter_ns

import numpy as np

from stegosampler import bitio, cli, coder, corpus, metrics, models, pnm

# (owner, attribute, span name): module functions are patched where their
# callers look them up, so coder's own imports of step_stats and the framing
# helpers are patched in coder's namespace.
TARGETS = [
    (coder, "quantize", "coder.quantize"),
    (coder, "embed_step", "coder.embed_step"),
    (coder, "extract_step", "coder.extract_step"),
    (coder, "embed_image", "coder.embed_image"),
    (coder, "extract_image", "coder.extract_image"),
    (coder, "step_stats", "metrics.step_stats"),
    (coder, "frame_encode", "bitio.frame_encode"),
    (coder, "frame_decode", "bitio.frame_decode"),
    (bitio.BitStream, "window", "bitio.window"),
    (bitio.BitString, "append", "bitio.append"),
    (models.ContextModel, "distribution", "models.distribution"),
    (models.StreamModel, "distribution", "models.distribution"),
    (models.PixelDistribution, "__init__", "models.build"),
    (models, "load_model", "models.load"),
    (models, "load_stream", "models.load"),
    (models, "save_model", "models.save"),
    (models, "save_stream", "models.save"),
    (models, "train_context_model", "models.train"),
    (metrics, "aggregate", "metrics.aggregate"),
    (metrics, "heatmaps", "metrics.heatmaps"),
    (metrics, "write_csv", "metrics.write_csv"),
    (metrics.EmbedReport, "bits_confirmed", "metrics.report"),
    (metrics.EmbedReport, "er_per_pixel", "metrics.report"),
    (metrics.EmbedReport, "er_per_step", "metrics.report"),
    (pnm, "read_image", "pnm.read"),
    (pnm, "write_image", "pnm.write"),
    (cli, "main", "cli.main"),
    (corpus, "stroke_corpus", "corpus.generate"),
    (corpus, "noise_corpus", "corpus.generate"),
]


class Tracer:
    """Records spans of wrapped calls; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("b")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_kinds: list[str] = ["none"]
        self.partition_symbols = 0  # nonzero-width symbols over all quantize calls
        self._stack = [-1]
        self._saved = []

    def begin_op(self, kind: str) -> None:
        """Later spans belong to a new operation (one embed, extract, ...)."""
        self.op_kinds.append(kind)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(len(self.op_kinds) - 1)
            self.end.append(0)
            stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_symbols(self, partition) -> None:
        self.partition_symbols += len(partition.cut) - 1

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            orig = vars(owner)[attr]
            hook = self._count_symbols if name == "coder.quantize" else None
            if isinstance(orig, property):
                new = property(self.wrap(name, orig.fget))
            else:
                new = self.wrap(name, orig, hook)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name": np.frombuffer(self.name, dtype=np.int8, count=n),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n),
            "parent": parent,
            "start": start,
            "end": end,
            "dur_ns": dur,
            "self_ns": dur - child,
        }

    def write(self, directory: str, stem: str) -> str:
        """Write all spans (.npz) and the name and operation tables (.json)."""
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, stem)
        arrs = self.arrays()
        keys = ("name", "op", "parent", "start", "end")
        np.savez_compressed(base + ".npz", **{k: arrs[k] for k in keys})
        with open(base + ".json", "w") as f:
            json.dump({"names": self.names, "op_kinds": self.op_kinds}, f)
        return base + ".npz"


class SpanTable:
    """Per-name totals over the spans of chosen operation kinds."""

    def __init__(self, tracer: Tracer, kinds: set[str]):
        a = tracer.arrays()
        kind_of_op = np.array([k in kinds for k in tracer.op_kinds], dtype=bool)
        keep = kind_of_op[a["op"]]
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self._name = a["name"][keep]
        self._dur = a["dur_ns"][keep]
        self._self = a["self_ns"][keep]

    def _mask(self, prefix: str) -> np.ndarray:
        ids = [i for n, i in self._ids.items() if n == prefix or n.startswith(prefix + ".")]
        return np.isin(self._name, ids)

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total_ns(self, name: str) -> float:
        return float(self._dur[self._mask(name)].sum())

    def self_ns(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum())

    def mean_us(self, name: str) -> float:
        n = self.count(name)
        return self.total_ns(name) / n / 1e3 if n else 0.0
