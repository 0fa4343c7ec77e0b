"""Spans around the public functions of every bspec module, installed from
outside the package.

`Tracer.install()` replaces each public function defined in a bspec module
by a wrapper, in every bspec module namespace that refers to it (so that
`runner.elaborate`, bound by `from .dsl import elaborate`, is wrapped too),
and in the runner's check table.  Two methods the layer metrics count are
wrapped on their classes, and so are the two private mediator-uniqueness
enumerators.  `uninstall()` puts the originals back.

A span is (name id, start, end, parent, outermost): `parent` is the index of
the enclosing span in the same round, or -1 for the benchmark's own root
span around one verdict; `outermost` is false when a span of the same name
encloses it (recursion), so inclusive times are not counted twice.  Spans
stay in memory as flat arrays and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

MODULES = ("setoid", "order", "families", "topology", "spectra", "limits",
           "duality", "dsl", "runner", "report")

# (module, class, method) wrapped on the class
METHODS = (("limits", "InverseLimit", "token_of"), ("duality", "MorCarrier", "find"))

# private helpers the layer metrics time
PRIVATE = (("limits", "_check_unique_mediator"), ("limits", "_check_unique_cone_mediator"))

ROOT = "bench.verdict"


def _count_hooks():
    """name -> hook(counters, args, kwargs, result) adding to the counters."""

    def bump(c, key, n=1):
        c[key] = c.get(key, 0) + n

    def calls(key):
        return lambda c, args, kwargs, result: bump(c, key)

    def find_certificate(c, args, kwargs, result):
        bump(c, "topology.find_certificate.calls")
        bump(c, "topology.find_certificate.found", result is not None)

    def quotient_by(c, args, kwargs, result):
        rel = args[1] if len(args) > 1 else kwargs["rel_pairs"]
        bump(c, "setoid.quotient_by.pairs", len(rel))

    def enumerate_morphisms(c, args, kwargs, result):
        src, dst = args[0], args[1]
        bump(c, "duality.enumerate_morphisms.candidates",
             len(dst.carrier.elements) ** len(src.carrier.classes()))
        bump(c, "duality.enumerate_morphisms.accepted", len(result))

    return {
        "limits.direct_limit": calls("limits.direct_limit.calls"),
        "limits.inverse_limit": calls("limits.inverse_limit.calls"),
        "families.direct_sum_equality": calls("families.direct_sum_equality.calls"),
        "order.top_element": calls("order.top_element.calls"),
        "limits.InverseLimit.token_of": calls("limits.InverseLimit.token_of.calls"),
        "duality.MorCarrier.find": calls("duality.MorCarrier.find.calls"),
        "topology.find_certificate": find_certificate,
        "setoid.quotient_by": quotient_by,
        "spectra.enumerate_threads":
            lambda c, args, kwargs, result: bump(c, "spectra.threads", len(result)),
        "families.enumerate_compatible":
            lambda c, args, kwargs, result: bump(
                c, "families.enumerate_compatible.choices", len(result)),
        "duality.enumerate_morphisms": enumerate_morphisms,
    }


class Tracer:
    def __init__(self):
        modules = {m: importlib.import_module(f"bspec.{m}") for m in MODULES}
        self.names = [ROOT]           # name id -> qualified name
        self.layers = ["bench"]       # name id -> layer (module)
        hooks = _count_hooks()
        wrappers = {}
        for m, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{m}.{attr}", m, hooks)
        for m, attr in PRIVATE:
            fn = getattr(modules[m], attr)
            wrappers[fn] = self._wrap(fn, f"{m}.{attr}", m, hooks)
        # every place a traced function is reachable from: module namespaces,
        # the runner's check table, and the two classes
        self._patches = []  # (owner, key, original, wrapper)
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[obj]))
        checks = modules["runner"].CHECKS
        for kind, fn in checks.items():
            self._patches.append((checks, kind, fn, wrappers[fn]))
        self.check_kinds = {f"runner.{fn.__name__}": kind for kind, fn in checks.items()}
        for m, cls_name, meth in METHODS:
            cls = getattr(modules[m], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn,
                                  self._wrap(fn, f"{m}.{cls_name}.{meth}", m, hooks)))
        self.reset()

    def reset(self):
        """Forget the spans and counts recorded so far."""
        self.sid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")
        self.stack = [-1]
        self.active = [0] * len(self.names)
        self.counters = {}

    def _wrap(self, fn, qualname, layer, hooks):
        self.names.append(qualname)
        self.layers.append(layer)
        sid = len(self.names) - 1
        hook = hooks.get(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            k = len(tracer.start)
            tracer.sid.append(sid)
            tracer.parent.append(tracer.stack[-1])
            tracer.outer.append(tracer.active[sid] == 0)
            tracer.end.append(0.0)
            tracer.stack.append(k)
            tracer.active[sid] += 1
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[k] = perf_counter()
                tracer.active[sid] -= 1
                tracer.stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _put(owner, key, value):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self):
        for owner, key, _, wrapper in self._patches:
            self._put(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            self._put(owner, key, original)

    def root(self, fn, *args):
        """Run fn(*args) inside the benchmark's root span."""
        k = len(self.start)
        self.sid.append(0)
        self.parent.append(-1)
        self.outer.append(True)
        self.end.append(0.0)
        self.stack.append(k)
        self.start.append(perf_counter())
        try:
            return fn(*args)
        finally:
            self.end[k] = perf_counter()
            self.stack.pop()

    def aggregate(self):
        """Self time per layer, inclusive (outermost) time per function, and
        the total root time, over the spans recorded since `reset`."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[k] - self.start[k] for k in range(n)]
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        self_by_layer, incl = {}, {}
        total_root = total_self = 0.0
        for k in range(n):
            s = self.sid[k]
            own = dur[k] - child[k]
            total_self += own
            layer = self.layers[s]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
            if self.outer[k]:
                name = self.names[s]
                incl[name] = incl.get(name, 0.0) + dur[k]
            if self.parent[k] < 0:
                total_root += dur[k]
        return {"self": self_by_layer, "inclusive": incl, "root": total_root,
                "self_sum": total_self, "spans": n}

    def write(self, path):
        """Spans as a JSON header plus one binary array per field."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "layers": self.layers, "spans": len(self.start),
                  "fields": [["sid", "H"], ["start", "d"], ["end", "d"],
                             ["parent", "i"], ["outermost", "b"]],
                  "clock": "time.perf_counter, seconds"}
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.sid, self.start, self.end, self.parent, self.outer):
                arr.tofile(fh)
