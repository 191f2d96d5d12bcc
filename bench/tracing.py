"""Traced runs: wrappers around the program's public functions.

`Tracer.install` replaces every public function of each layer module of
`planarize` by a timing wrapper, at every name under which any `planarize`
module holds it (so `dualize.nondegenerate_at` is wrapped as well as
`jetplan.nondegenerate_at`), plus a few hot methods.  Nothing under `src/` is
edited; `uninstall` puts the originals back.

A wrapper counts calls and adds the call's self time (its duration minus the
time covered by wrapped calls inside it) to its function.  A call whose
caller is in another layer, or is the benchmark itself, is a layer boundary
and is also kept as a span (name, start, end, parent span).  Spans stay in
memory until `write_spans` is called once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("projcore", "poly", "univar", "jetplan", "dualize", "ratfit", "conicweb", "cli")

#: (layer, class, method, metric name) of the methods that are wrapped too
METHODS = (
    ("poly", "HPoly", "substitute", "poly.substitute"),
    ("poly", "RatMap", "evaluate", "poly.ratmap_evaluate"),
    ("jetplan", "ExactMapSource", "evaluate", "jetplan.source_evaluate"),
    ("jetplan", "CallableSource", "evaluate", "jetplan.source_evaluate"),
    ("jetplan", "GridMapSource", "evaluate", "jetplan.source_evaluate"),
)


class Tracer:
    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.spans: list = []
        self._stack: list = []  # frames [layer, child seconds, span id, opened a span]
        self._patches: list = []
        self._nodes: set = set()
        self._sources: dict = {}  # keeps each evaluated source alive, so ids stay unique
        self.pass_index = 0

    # -- per-pass aggregates

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self._nodes.clear()
        self._sources.clear()

    def snapshot(self) -> dict:
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        out["jetplan.source_evaluate.distinct"] = len(self._nodes)
        return out

    # -- spans

    def _open(self, name: str, layer: str, t0: float) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is None or parent[0] != layer:
            span = len(self.spans)
            self.spans.append([name, t0, None, parent[2] if parent else None, self.pass_index])
        else:
            span = parent[2]
        frame = [layer, 0.0, span, parent is None or parent[0] != layer]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if frame[3]:
            self.spans[frame[2]][2] = t1

    @contextmanager
    def op(self, label: str):
        """One benchmark operation: the root span of the calls it makes."""
        frame = self._open(f"bench.{label}", "bench", perf_counter())
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[frame[2]][2] = perf_counter()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, pass_index) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "pass": pass_index}
                    )
                    + "\n"
                )

    # -- wrappers

    def _wrap(self, name: str, layer: str, fn, hook=None):
        opened, closed = self._open, self._close

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            frame = opened(name, layer, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(name, frame, t0, perf_counter())
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self) -> dict:
        counts, nodes, sources = self.counts, self._nodes, self._sources

        def nondegenerate(args, result):
            if result:
                counts["jetplan.nondegenerate_at.accepted"] += 1

        def nullspace(args, result):
            rows = args[0]
            counts["projcore.nullspace.cells"] += len(rows) * (len(rows[0]) if rows else 0)

        def source_evaluate(args, result):
            src, u, v = args[0], args[1], args[2]
            sources[id(src)] = src
            nodes.add((id(src), u, v))

        return {
            "jetplan.nondegenerate_at": nondegenerate,
            "projcore.nullspace": nullspace,
            "jetplan.source_evaluate": source_evaluate,
        }

    def install(self) -> None:
        """Wrap the layers of the `planarize` package on `sys.path`."""
        hooks = self._hooks()
        for layer in LAYERS:
            importlib.import_module(f"planarize.{layer}")
        holders = [m for n, m in sys.modules.items() if n == "planarize" or n.startswith("planarize.")]
        for layer in LAYERS:
            mod = sys.modules[f"planarize.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, layer, obj, hooks.get(name))
                for holder in holders:
                    for hattr, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._patches.append((holder, hattr, obj))
                            setattr(holder, hattr, wrapper)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"planarize.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, layer, orig, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
