"""Span tracer that instruments headkv from outside the package.

`Tracer.install()` replaces public entry points at the names their callers
resolve (module attributes such as `headkv.rollout.pack`, class attributes
such as `EpisodicMemory.try_admit`) with wrappers that record a span per
call; `uninstall()` puts the originals back, so untraced code runs exactly
the library's own functions. Projection matmuls are not function calls, so
they are timed through `traced_weights`, which views the projection tensors
as an ndarray subclass whose matmul records a span.

Spans (name, start, end, parent, block) stay in memory and are written with
`dump()` when the run ends. A layer's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

PROJECTION_TARGET = "headkv.model.ModelWeights.projection"

_perf_ns = time.perf_counter_ns


def _pack_counts(tracer: "Tracer", result: Any, args: tuple) -> None:
    tracer.add("assembly.pack_scalars", result.keys.size + result.values.size)
    tracer.add("assembly.pack_bytes_computed",
               result.keys.nbytes + result.values.nbytes + result.queries.nbytes)


def _attention_counts(tracer: "Tracer", result: Any, args: tuple) -> None:
    buffer = args[0]
    d = buffer.keys.shape[1]
    # q @ k.T and softmax(.) @ v: two multiply-adds per (query, key, channel)
    flops = 4 * d * int(np.dot(buffer.q_lengths, buffer.k_lengths))
    tracer.add("assembly.attention_flops_computed", flops)


def _assemble_counts(tracer: "Tracer", result: Any, args: tuple) -> None:
    tracer.add("assembly.frames", result.frame_count)


def _admit_counts(tracer: "Tracer", result: Any, args: tuple) -> None:
    tracer.add("episodic.admitted", int(result.admitted))


# (span name, module path, attribute path, counter hook)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("rollout.step", "headkv.rollout", "RolloutEngine.step", None),
    ("rollout.commit", "headkv.rollout", "RolloutEngine.commit", None),
    ("model.block_input", "headkv.rollout", "block_input", None),
    ("rollout.framekv", "headkv.rollout", "FrameKV", None),
    ("tensor_ops.apply_rope", "headkv.rollout", "apply_rope", None),
    ("tensor_ops.apply_rope", "headkv.assembly", "apply_rope", None),
    ("tensor_ops.softmax_rows", "headkv.assembly", "softmax_rows", None),
    ("tensor_ops.softmax_rows", "headkv.profiling", "softmax_rows", None),
    ("cache.history", "headkv.rollout", "HeadWiseStrategy.history_frames", None),
    ("cache.history", "headkv.rollout", "WindowStrategy.history_frames", None),
    ("assembly.assemble", "headkv.rollout", "assemble", _assemble_counts),
    ("assembly.encode", "headkv.rollout", "reencode_temporal", None),
    ("assembly.encode", "headkv.rollout", "encode_temporal", None),
    ("assembly.encode", "headkv.rollout", "encode_queries", None),
    ("assembly.pack", "headkv.rollout", "pack", _pack_counts),
    ("assembly.packed_attention", "headkv.rollout", "packed_attention", _attention_counts),
    ("cache.roll", "headkv.rollout", "roll_after_block", None),
    ("cache.roll", "headkv.rollout", "WindowStrategy.roll", None),
    ("episodic.try_admit", "headkv.episodic", "EpisodicMemory.try_admit", _admit_counts),
    ("episodic.novelty", "headkv.episodic", "EpisodicMemory.novelty_score", None),
    ("episodic.compress", "headkv.episodic", "EpisodicMemory.compress_into_summary", None),
    ("model.init_model", "headkv", "init_model", None),
    ("profiling.profile", "headkv", "profile_rollout", None),
    ("reference.oracle", "headkv.reference", "ReferenceGenerator.run", None),
)


def _resolve(module: str, attr: str) -> tuple[Any, str, Any]:
    """Owner, final attribute name and current value of 'Class.method' or
    'function' in module; a class attribute is read from the class itself."""
    owner: Any = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class Tracer:
    """In-memory span recorder. Not thread-safe; the benchmark is single-threaded."""

    def __init__(self, targets: Iterable[tuple[str, str, str, Callable | None]] = TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span i: name id, start and end ns, parent span index (-1 for a root), block
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_block: list[Any] = []
        self._stack: list[int] = []
        self.block: Any = None
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[Any, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_block.append(self.block)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(_perf_ns())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = _perf_ns()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        """Add to a per-block counter of the block currently being traced."""
        self.counts[self.block][key] += value

    def wrap(self, target: str, name: str, fn: Callable,
             hook: Callable | None = None) -> Callable:
        nid = self.name_id(name)
        calls = self.calls

        def traced(*args, **kwargs):
            calls[target] += 1
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, attr, hook in self.targets:
            owner, leaf, original = _resolve(module, attr)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(f"{module}.{attr}", name, original, hook))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def traced_weights(self, weights):
        """A copy of ModelWeights whose projection tensors time their matmuls."""
        views = {}
        for key in ("wq", "wk", "wv", "wo"):
            view = getattr(weights, key).view(_TimedMatrix)
            view._tracer = self
            views[key] = view
        return dataclasses.replace(weights, **views)

    # -- analysis ---------------------------------------------------------

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span inclusive and self durations in nanoseconds."""
        total = np.asarray(self.span_end, dtype=np.int64) - np.asarray(self.span_start, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        child = np.zeros_like(total)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], total[has_parent])
        return total, total - child

    def by_block(self) -> dict[Any, dict[str, float]]:
        """Per block: inclusive ms per span name, self ms as '<name>.self',
        call count as '<name>.calls', plus the block's counters."""
        total, self_ns = self.durations()
        out: dict[Any, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (nid, block) in enumerate(zip(self.span_name, self.span_block)):
            row = out[block]
            name = self.names[nid]
            row[name] += total[i] / 1e6
            row[name + ".self"] += self_ns[i] / 1e6
            row[name + ".calls"] += 1
        for block, counts in self.counts.items():
            for key, value in counts.items():
                out[block][key] += value
        return out

    def span_seconds(self, name: str, child_names: Iterable[str] = ()) -> list[tuple[float, float]]:
        """(duration, summed duration of direct children named in child_names)
        in seconds, for every span called name."""
        if name not in self._name_ids:
            return []
        total, _ = self.durations()
        names = np.asarray(self.span_name)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        child_ids = [self._name_ids[c] for c in child_names if c in self._name_ids]
        is_child = np.isin(names, child_ids) & (parent >= 0)
        child = np.zeros_like(total)
        np.add.at(child, parent[is_child], total[is_child])
        picked = np.flatnonzero(names == self._name_ids[name])
        return [(total[i] / 1e9, child[i] / 1e9) for i in picked]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start_ns, end_ns, parent, block."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for nid, start, end, parent, block in zip(self.span_name, self.span_start, self.span_end,
                                                       self.span_parent, self.span_block):
                fh.write(json.dumps([self.names[nid], start, end, parent, block]) + "\n")


class _TimedMatrix(np.ndarray):
    """Projection tensor view whose matmuls record a 'rollout.projection' span."""

    _tracer: Tracer | None = None

    def __array_finalize__(self, obj) -> None:
        self._tracer = getattr(obj, "_tracer", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = tuple(x.view(np.ndarray) if isinstance(x, _TimedMatrix) else x for x in inputs)
        tracer = self._tracer
        if tracer is None or ufunc is not np.matmul or method != "__call__":
            return getattr(ufunc, method)(*plain, **kwargs)
        tracer.calls[PROJECTION_TARGET] += 1
        idx = tracer.open(tracer.name_id("rollout.projection"))
        try:
            return ufunc(*plain, **kwargs)
        finally:
            tracer.close(idx)
