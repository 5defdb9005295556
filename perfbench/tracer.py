"""Span tracing of the stencilfa layers from outside the library.

A Tracer finds every public function of the layer modules (and every public
method of their public classes), builds one timing wrapper per function, and
rebinds each module namespace that holds the function, so a call through
``stencilfa.expr.pinv_matrix`` is traced as well as one through
``stencilfa.symbol.pinv_matrix`` or ``stencilfa.pinv_matrix``.  Nothing in
the library changes; ``patch()`` and ``unpatch()`` swap the bindings, so the
untraced code runs exactly as shipped.

Each wrapped call appends one span ``[function, start, end, parent]``; the
layer of a function is the module that defines it.  References held in
containers (for example the constructor table inside ``gallery``) are not
module bindings and stay unwrapped: their time is the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("intlat", "crystal", "operator", "symbol", "expr", "oracle", "gallery", "cli")


class Tracer:
    def __init__(self, package: str = "stencilfa"):
        self.package = package
        self.functions: list[str] = []  # "layer.name" or "layer.Class.name"
        self.layer_of: list[int] = []  # index into LAYERS, per function
        self.spans: list[list] = []  # [function, start, end, parent]
        self.stack: list[int] = []
        self.counters = {"symbol.pinv_matrix.zeroed": 0, "crystal.samples": 0}
        self._bindings: list[tuple[object, str, object, object]] = []
        self._discover()

    # -- discovery and rebinding -------------------------------------------

    def _discover(self) -> None:
        wrappers: dict[int, object] = {}
        for layer_idx, layer in enumerate(LAYERS):
            module = sys.modules[f"{self.package}.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer_idx)
                elif inspect.isclass(obj):
                    self._discover_methods(obj, layer, layer_idx)
        for module_name, module in list(sys.modules.items()):
            if module_name != self.package and not module_name.startswith(self.package + "."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((module, name, obj, wrapper))

    def _discover_methods(self, cls, layer: str, layer_idx: int) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(raw):
                wrapper = self._wrap(raw, label, layer_idx)
            elif isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(self._wrap(raw.__func__, label, layer_idx))
            else:
                continue  # properties and data attributes
            self._bindings.append((cls, name, raw, wrapper))

    def _wrap(self, fn, label: str, layer_idx: int):
        index = len(self.functions)
        self.functions.append(label)
        self.layer_of.append(layer_idx)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        after = self._after_hooks().get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _after_hooks(self):
        counters = self.counters

        def pinv_zeroed(args, kwargs, out):
            # a zero result for a nonzero input is a noise-floor hit
            if not out.any():
                m = args[0] if args else kwargs["m"]
                if getattr(m, "size", 0) and m.any():
                    counters["symbol.pinv_matrix.zeroed"] += 1

        def samples(args, kwargs, out):
            counters["crystal.samples"] += len(out)

        return {"symbol.pinv_matrix": pinv_zeroed, "crystal.sample_dual_torus": samples}

    def patch(self) -> None:
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def unpatch(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    @property
    def binding_count(self) -> int:
        return len(self._bindings)

    # -- aggregation -------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict:
        """Totals over spans[first:last], which must hold whole call trees.

        Self time is a span's duration minus its children's durations.  A
        function's busy time counts only its outermost spans, so recursion
        is not counted twice.
        """
        spans = self.spans
        n_funcs = len(self.functions)
        child = [0.0] * (last - first)
        busy = [0.0] * n_funcs
        self_f = [0.0] * n_funcs
        calls = [0] * n_funcs
        top = 0.0
        for i in range(last - 1, first - 1, -1):  # children come after parents
            fn, start, end, parent = spans[i]
            dur = end - start
            self_f[fn] += dur - child[i - first]
            calls[fn] += 1
            if parent >= first:
                child[parent - first] += dur
            else:
                top += dur
            p = parent
            while p >= first and spans[p][0] != fn:
                p = spans[p][3]
            if p < first:
                busy[fn] += dur
        layer_self = [0.0] * len(LAYERS)
        layer_calls = [0] * len(LAYERS)
        for fn in range(n_funcs):
            layer_self[self.layer_of[fn]] += self_f[fn]
            layer_calls[self.layer_of[fn]] += calls[fn]
        return {
            "top_s": top,
            "busy_s": dict(zip(self.functions, busy)),
            "self_s": dict(zip(self.functions, self_f)),
            "calls": dict(zip(self.functions, calls)),
            "layer_self_s": dict(zip(LAYERS, layer_self)),
            "layer_calls": dict(zip(LAYERS, layer_calls)),
        }

    def dump(self, path, t0: float, extra: dict) -> None:
        """Write every span as JSON; times are seconds after t0."""
        payload = dict(extra)
        payload["functions"] = [
            {"layer": LAYERS[self.layer_of[i]], "function": f}
            for i, f in enumerate(self.functions)
        ]
        payload["span_fields"] = ["layer", "function", "start", "end", "parent"]
        payload["spans"] = [
            [self.layer_of[fn], fn, round(s - t0, 7), round(e - t0, 7), p]
            for fn, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
