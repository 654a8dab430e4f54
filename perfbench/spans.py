"""Spans around calls into kostka's modules, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules (and
the two ``FreudenthalTable`` methods) under every ``kostka.*`` attribute
bound to it, so calls between modules are seen whichever name they go
through; ``uninstall`` puts the originals back.  Each call is a span (name,
start, end, parent) tagged with the request it belongs to.  Self time is a
span's duration minus the durations of its direct children, which in a
single thread are disjoint and inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "cone", "linalg", "rootdata", "weyl", "levi", "oracle")
METHODS = {("oracle", "FreudenthalTable", "__init__"): "oracle.table_build",
           ("oracle", "FreudenthalTable", "multiplicity"): "oracle.multiplicity"}
# spans kept for the trace file; aggregates cover every span
KEEP_SPANS = 50_000


def _count_solve(tracer, args, result, failed):
    a = args[0]
    tracer.counts["linalg.solve_unique.n3"] += len(a[0]) ** 3 if a else 0
    tracer.counts["linalg.solve_unique.failed"] += failed


def _counter(key, value):
    def hook(tracer, args, result, failed):
        if not failed:
            tracer.counts[key] += value(result)
    return hook


# work counted at the boundary where it happens
HOOKS = {
    "linalg.solve_unique": _count_solve,
    "weyl.orbit": _counter("weyl.orbit.points", len),
    "cone.polytope_vertices": _counter("cone.vertices.emitted", len),
    "cone.rays_for_node": _counter("cone.rays.emitted", len),
    "rootdata.connected_subsets_containing": _counter("rootdata.connected_subsets.out", len),
    "oracle.compare_membership_multiplicity": _counter("oracle.disagreements",
                                                       lambda m: int(not m.agrees)),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        failed = False
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((self.request, sid, parent, name, t0, t1))
            else:
                self.dropped += 1
            hook = HOOKS.get(name)
            if hook is not None:
                hook(self, args, None if failed else result, failed)
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        import kostka
        modules = [kostka] + [importlib.import_module(f"kostka.{m}") for m in LAYERS]
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"kostka.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    targets[id(obj)] = self._wrapper(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapped = targets.get(id(obj))
                if wrapped is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(importlib.import_module(f"kostka.{layer}"), cls_name)
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrapper(name, fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def self_time_by_request(self) -> dict[int, float]:
        """Summed self time of the kept spans, per request."""
        children: dict[int, float] = defaultdict(float)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent] += t1 - t0
        out: dict[int, float] = defaultdict(float)
        for req, sid, _, _, t0, t1 in self.spans:
            out[req] += (t1 - t0) - children[sid]
        return out

    def write(self, path) -> None:
        """Aggregates on the first line, then one kept span per line."""
        with open(path, "w") as f:
            f.write(json.dumps({"calls": self.calls, "self_s": self.self_s,
                                "counts": self.counts, "spans_kept": len(self.spans),
                                "spans_dropped": self.dropped}) + "\n")
            for req, sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps({"request": req, "id": sid, "parent": parent,
                                    "name": name, "start": t0, "end": t1}) + "\n")
