"""Per-layer tracing of cyclo2 from outside the program.

``Tracer.install()`` replaces every public function of the cyclo2 modules,
in every module namespace that binds it (``from .cyclic import homology``
copies the binding into ``approx``, ``cli`` and the package), plus the
methods in ``METHODS`` (``AlgebraPresentation`` construction, ``mul``,
``normal_form``, ``degree_basis`` and ``QuotientBasis.from_relations``),
with a wrapper that knows the function's layer.

* A call that crosses into another layer opens a span (name, start, end,
  parent).  Spans are kept in memory and written out by ``dump``.
* A call inside the caller's own layer is only counted: it cannot change
  the split between layers.
* Hot callees (``HOT``) are only counted, never timed, so that tracing
  stays cheap.  Their time is self time of the layer that called them.

A layer's self time is the duration of its spans minus the part covered by
their child spans and by speedometer probes (``reference.py``), so the self
times of all layers add up to the probe-free duration of the root spans,
one ``cli.run`` call per request.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "gralg", "ell", "f2linalg", "cyclic", "hochschild",
          "approx.psi", "approx.verify", "derham")

MODULE_LAYER = {
    "cyclo2.cli": "cli",
    "cyclo2.gralg": "gralg",
    "cyclo2.ell": "ell",
    "cyclo2.f2linalg": "f2linalg",
    "cyclo2.cyclic": "cyclic",
    "cyclo2.hochschild": "hochschild",
    "cyclo2.derham": "derham",
}
APPROX_PSI = ("psi_matrix", "psi_class", "chain_of_monomial",
              "psi_generator_image")
APPROX_VERIFY = ("verify_approximation", "verify_squares",
                 "_sample_product_checks")
METHODS = (
    ("cyclo2.gralg", "AlgebraPresentation", "__post_init__"),  # Buchberger
    ("cyclo2.gralg", "AlgebraPresentation", "mul"),
    ("cyclo2.gralg", "AlgebraPresentation", "normal_form"),
    ("cyclo2.gralg", "AlgebraPresentation", "degree_basis"),
    ("cyclo2.f2linalg", "QuotientBasis", "from_relations"),
)
# called up to millions of times per request: counted, never timed
HOT = frozenset({
    "gralg.AlgebraPresentation.mul",
    "gralg.AlgebraPresentation.normal_form",
    "gralg.AlgebraPresentation.degree_basis",
    "hochschild.boundary_b",
    "hochschild.connes_B",
})
# exponent-tuple arithmetic that every layer calls inline (as sort keys,
# millions of times per request); a wrapper, even a counting one, would
# cost more than the call, so these stay part of their caller's self time
UNWRAPPED = frozenset({
    "gralg.mono_mul", "gralg.mono_divides", "gralg.mono_div",
    "gralg.mono_lcm", "gralg.grevlex_key", "gralg.poly_add",
    "gralg.leading_monomial",
})
# per-layer metrics besides <layer>.self_share and <layer>.calls
WORK_COUNTS = (
    "gralg.mul_calls", "gralg.normal_form_calls",
    "ell.candidates", "ell.relation_rows",
    "f2linalg.vectors_in", "f2linalg.max_ambient_dim",
    "cyclic.slice_dim_sum", "cyclic.slice_dim_max",
    "hochschild.b_words", "hochschild.B_words", "hochschild.shuffle_products",
    "approx.verify.squares", "approx.verify.product_checks",
)
HIT_RATIOS = {
    "cyclic.homology_hit_ratio": "cyclic.homology",
    "ell.space_hit_ratio": "ell.ell_degree_basis",
    "approx.psi.matrix_hit_ratio": "approx.psi.psi_matrix",
    "approx.psi.chain_hit_ratio": "approx.psi.chain_of_monomial",
}


def _f2_input(name: str, args: tuple) -> tuple[int, int]:
    """(vectors, ambient dimension) handed to an f2linalg entry point."""
    if name in ("echelonize", "rank_of", "eliminate_tracked"):
        vs = args[0]
        return len(vs), max((v.bit_length() for v in vs), default=0)
    if name == "echelonize_in":
        return len(args[0]), args[1]
    if name == "QuotientBasis.from_relations":  # args[0] is the class
        return len(args[2]), args[1]
    if name in ("rank_kernel_image", "solve"):
        m = args[0]
        return m.cols, max(m.rows, m.cols)
    if name == "complement_basis":
        return len(args[0].vectors), args[0].ambient_dim
    if name in ("class_coordinates", "quotient_coordinates"):
        return 1, args[1].ambient_dim
    return 0, 0


def layer_of(module: str, name: str) -> str:
    if module == "cyclo2.approx":
        return "approx.psi" if name in APPROX_PSI else "approx.verify"
    return MODULE_LAYER[module]


def patch_targets() -> dict[str, tuple[str, object]]:
    """label -> (layer, original callable) for every function to wrap.

    A public function is a module-level function (or lru_cache wrapper)
    defined in that module whose name has no leading underscore, except
    the helpers in ``UNWRAPPED``; the product-sample helper of approx is
    added by name.
    """
    targets = {}
    for module in list(MODULE_LAYER) + ["cyclo2.approx"]:
        mod = importlib.import_module(module)
        for name, obj in vars(mod).items():
            wanted = (not name.startswith("_")) or name in APPROX_VERIFY
            is_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
            if wanted and is_fn and getattr(obj, "__module__", None) == module:
                layer = layer_of(module, name)
                label = f"{layer}.{name}"
                if label not in UNWRAPPED:
                    targets[label] = (layer, obj)
    for module, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[meth]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        layer = MODULE_LAYER[module]
        targets[f"{layer}.{cls_name}.{meth}"] = (layer, fn)
    return targets


def cyclo2_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "cyclo2" or n.startswith("cyclo2."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # labels of the spanning wrappers
        self.spans: list = []  # (name index, start, end, parent index)
        self.stack: list[tuple[int, str | None]] = [(-1, None)]
        self.calls: Counter = Counter()  # label -> calls
        self.work: Counter = Counter()  # WORK_COUNTS name -> count
        self.max_ambient = 0
        self.slice_max = 0
        self.hits: Counter = Counter()
        self.probe_time: Counter = Counter()  # span index -> probe seconds
        self.seen: dict[str, dict[int, object]] = {}
        self.label_layer: dict[str, str] = {}
        self.originals: dict[str, object] = {}  # label -> original
        self.wrapped: dict[str, object] = {}  # label -> wrapper
        self._restore: list[tuple[object, str, object]] = []

    # ----- request and pass bookkeeping -----

    def begin_request(self):
        """Hits are counted within one request, whose caches start cold."""
        self.seen = {}

    def reset_counts(self):
        self.calls.clear()
        self.work.clear()
        self.hits.clear()
        self.max_ambient = 0
        self.slice_max = 0

    def absorb_probe(self, seconds: float):
        """A speedometer probe ran inside the innermost open span."""
        self.probe_time[self.stack[-1][0]] += seconds

    def _first_sight(self, label: str, obj) -> bool:
        seen = self.seen.setdefault(label, {})
        if id(obj) in seen:
            self.hits[label] += 1
            return False
        seen[id(obj)] = obj  # keeps obj alive, so its id stays unique
        return True

    # ----- observers of results, keyed by label -----

    def _observe(self, label: str):
        work = self.work
        if label in ("cyclic.homology", "approx.psi.chain_of_monomial"):
            return lambda r: self._first_sight(label, r)
        if label == "approx.psi.psi_matrix":
            return lambda r: self._first_sight(label, r[0])
        if label == "ell.ell_degree_basis":
            def obs(sp):
                if self._first_sight(label, sp):
                    work["ell.candidates"] += len(sp.cands)
                    work["ell.relation_rows"] += \
                        len(sp.quotient.relations.vectors)
            return obs
        if label == "cyclic.build_tower":
            def obs(sl):
                if self._first_sight(label, sl):
                    work["cyclic.slice_dim_sum"] += sl.dim
                    self.slice_max = max(self.slice_max, sl.dim)
            return obs
        if label == "hochschild.boundary_b":
            def obs(r):
                work["hochschild.b_words"] += len(r)
            return obs
        if label == "hochschild.connes_B":
            def obs(r):
                work["hochschild.B_words"] += len(r)
            return obs
        if label in ("hochschild.mu_chain", "hochschild.shuffle_product"):
            def obs(r):
                work["hochschild.shuffle_products"] += 1
            return obs
        if label == "approx.verify.verify_squares":
            def obs(r):
                work["approx.verify.squares"] += len(r)
            return obs
        if label == "approx.verify._sample_product_checks":
            def obs(r):
                work["approx.verify.product_checks"] += r[0]
            return obs
        return None

    def _on_enter(self, label: str, layer: str):
        """Work counted when another layer calls into this one."""
        if layer != "f2linalg":
            return None
        name = label[len("f2linalg."):]
        work = self.work

        def enter(args):
            count, dim = _f2_input(name, args)
            work["f2linalg.vectors_in"] += count
            if dim > self.max_ambient:
                self.max_ambient = dim
        return enter

    # ----- wrappers -----

    def _wrap(self, label: str, layer: str, fn):
        calls = self.calls
        observe = self._observe(label)
        self.label_layer[label] = layer
        if label in HOT:
            def counted(*args, **kwargs):
                calls[label] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            return counted
        name_idx = len(self.names)
        self.names.append(label)
        spans, stack = self.spans, self.stack
        enter = self._on_enter(label, layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[label] += 1
            top = stack[-1]
            if top[1] == layer:
                result = fn(*args, **kwargs)
            else:
                if enter is not None:
                    enter(args)
                idx = len(spans)
                spans.append(None)
                stack.append((idx, layer))
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (name_idx, t0, t1, top[0])
            if observe is not None:
                observe(result)
            return result
        return traced

    def install(self):
        targets = patch_targets()
        by_id = {}
        for label, (layer, fn) in targets.items():
            wrapper = self._wrap(label, layer, fn)
            self.originals[label] = fn
            self.wrapped[label] = wrapper
            by_id[id(fn)] = wrapper
        for mod in cyclo2_modules():
            for name, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        for module, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[meth]
            label = f"{MODULE_LAYER[module]}.{cls_name}.{meth}"
            wrapper = self.wrapped[label]
            new = classmethod(wrapper) if isinstance(raw, classmethod) \
                else wrapper
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # ----- results -----

    def self_times(self, first_span: int = 0) -> Counter:
        """Self seconds per layer over spans[first_span:]."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= first_span:
                child[parent - first_span] += t1 - t0
        out: Counter = Counter()
        probe_time = self.probe_time
        layer_of_name = [self.label_layer[label] for label in self.names]
        for k, (name_idx, t0, t1, _) in enumerate(spans):
            out[layer_of_name[name_idx]] += (
                (t1 - t0) - child[k] - probe_time.get(first_span + k, 0.0))
        return out

    def layer_metrics(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer metrics since the last reset_counts().

        Self time is given as a share of the traced time, so that a layer
        the workload never calls reads 0 as a share, not as a time.
        """
        self_s = self.self_times(first_span)
        traced = sum(self_s.values())
        layer_calls: Counter = Counter()
        for label, n in self.calls.items():
            layer_calls[self.label_layer[label]] += n
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_share"] = \
                self_s.get(layer, 0.0) / traced if traced else 0.0
            out[f"{layer}.calls"] = layer_calls.get(layer, 0)
        for name in WORK_COUNTS:
            out[name] = self.work.get(name, 0)
        out["gralg.mul_calls"] = self.calls["gralg.AlgebraPresentation.mul"]
        out["gralg.normal_form_calls"] = \
            self.calls["gralg.AlgebraPresentation.normal_form"]
        out["f2linalg.max_ambient_dim"] = self.max_ambient
        out["cyclic.slice_dim_max"] = self.slice_max
        for metric, label in HIT_RATIOS.items():
            n = self.calls[label]
            out[metric] = self.hits[label] / n if n else 0.0
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "layers": [self.label_layer[n] for n in self.names],
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
