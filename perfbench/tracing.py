"""Per-layer tracing by wrapping calls into the program from outside.

Each hook names a layer metric and a function or method of `sessionkit`.
Installing a hook replaces every binding of that function in every loaded
`sessionkit` module (modules that import a function by name hold their own
binding), so the wrapper sees every call.  A hook whose target no longer
exists is reported as missing and the traced run goes on without it.

A span runs from a wrapper's entry to its exit; a layer's self time is its
span time minus the time of the spans it caused.  Spans are aggregated per
layer as they close rather than stored, to keep memory flat on long runs.
Calls that re-enter the layer they are already in (recursive `normalize`,
`encode` calling `queue_type`) count within the outer span.
"""

from __future__ import annotations

import sys
import time


class Layer:
    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.distinct = set()


def _label_key(args, kwargs):
    # (type, label, mode) of lts.enabled_nodes / lts.derivative; the type's
    # key was cached by the call itself, so reading it here is cheap
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "full")
    return (args[0].key(), args[1].key(), mode)


def _on_canonical(tracer, layer, args, kwargs, res):
    tracer.count("types.canonical.nodes", len(res))


def _on_distinct(tracer, layer, args, kwargs, res):
    layer.distinct.add(_label_key(args, kwargs))


def _on_check(tracer, layer, args, kwargs, res):
    tracer.count("relations.pairs_explored", res.stats.get("pairs_explored", 0))
    tracer.count("relations.pairs_frontier", res.stats.get("pairs_frontier", 0))
    tracer.count("relations.decided", int(res.answer in ("yes", "no")))


def _on_redexes(tracer, layer, args, kwargs, res):
    tracer.count("runtime.redexes.found", len(res))


def _on_run(tracer, layer, args, kwargs, res):
    tracer.count("runtime.steps", res.steps)


def _on_correspondence(tracer, layer, args, kwargs, res):
    tracer.count("qm.correspondence.steps", len(res["steps_ok"]))


# (layer, module, attribute path, what to count on return)
HOOKS = [
    ("types.canonical", "types", "_canonical_table", _on_canonical),
    ("types.equiv", "types", "equiv", None),
    ("lts.enabled", "lts", "enabled_nodes", _on_distinct),
    ("lts.derivative", "lts", "derivative", _on_distinct),
    ("lts.labels", "lts", "enumerate_labels", None),
    ("relations.check", "relations", "check", _on_check),
    ("relations.expand", "relations", "_expand", None),
    ("relations.validate", "relations", "validate_witness", None),
    ("relations.validate", "relations", "validate_counterexample", None),
    ("measures.infer", "measures", "infer_measures", None),
    ("measures.typecheck", "measures", "typecheck", None),
    ("process.parse", "process", "parse_program", None),
    ("runtime.run", "runtime", "run", _on_run),
    ("runtime.redexes", "runtime", "enabled_redexes", _on_redexes),
    ("runtime.step", "runtime", "step", None),
    ("runtime.normalize", "runtime", "normalize", None),
    ("runtime.pick", "runtime", "RandomScheduler.pick", None),
    ("runtime.pick", "runtime", "RoundRobinFair.pick", None),
    ("runtime.pick", "runtime", "MinMeasure.pick", None),
    ("qm.correspondence", "qm", "step_correspondence", _on_correspondence),
    ("qm.encode", "qm", "encode", None),
    ("qm.encode", "qm", "queue_type", None),
    ("qm.encode", "qm", "control_type", None),
    ("qm.simulate", "qm", "simulate", None),
]


class Tracer:
    def __init__(self):
        self.layers = {name: Layer() for name, *_ in HOOKS}
        self.counts = {}
        self.missing = []
        self._stack = []  # [layer name, time of child spans]

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name, fn, on_return):
        layer = self.layers[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                layer.calls += 1
                layer.self_s += dt - frame[1]
            if on_return is not None:
                on_return(self, layer, args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every binding of each hooked function; note missing ones."""
        modules = [m for k, m in sys.modules.items()
                   if k == "sessionkit" or k.startswith("sessionkit.")]
        for name, mod, path, on_return in HOOKS:
            owner = sys.modules.get(f"sessionkit.{mod}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod}.{path}")
                continue
            wrapper = self._wrap(name, fn, on_return)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, k, wrapper)

    def self_total(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())

    def to_json(self) -> dict:
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_s"] = layer.self_s
            if layer.distinct:
                out[f"{name}.distinct"] = len(layer.distinct)
        out.update(self.counts)
        return out
