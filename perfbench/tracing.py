"""Per-layer tracing installed from outside the program.

Two instruments, used in separate passes over the same operation list:

* :class:`SpanTracer` wraps the public functions of every ``tvspaces``
  module, in every module namespace that bound them (``from .space import
  is_continuous`` makes copies in ``generation``, ``quasi`` and ``suite``),
  plus the listed class methods.  Each call records a span: name, start,
  end, parent span and operation id.  A span's self time is its duration
  minus the time its child spans cover.  It is credited to the nearest
  enclosing span of the same layer (itself included) that belongs to a
  metric family, so the helpers a family calls in its own module count
  towards it; time in a layer outside any family goes to
  ``<layer>.other``.  Work counts (candidates tested, results kept, calls,
  bytes parsed) are taken at the same boundaries.
* :class:`ScalarCounter` counts the per-scalar calls (quantale operations,
  ``Quantale._check``, ``VRel.get``, monad methods).  Wrapping those would
  inflate span times, so they are counted in a pass of their own.

Both restore every patched attribute on ``uninstall``.
"""

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("quantale", "vrel", "monad", "space", "enumeration", "generation",
           "quasi", "textio", "cli")

# class methods wrapped with spans, by module; constructors that call back
# into their caller (VRel.build, Space.from_square) stay unwrapped, so the
# callback's work is not split off from the family that asked for it
METHODS = {
    "generation": {"ProbeClass": ("__init__", "explicit",
                                  "compact_hausdorff_upto", "sierpinski",
                                  "probes_into", "homs", "coreflect",
                                  "exponential_with")},
    "quasi": {"QuasiSpace": ("__init__", "arrows"), "Cover": ("verify",)},
}

# module-level helpers cheaper than a span; their time lands in the caller
UNWRAPPED = {"space.all_maps", "space.map_label", "space.point_order_leq",
             "space.pairing", "space.copairing",
             "enumeration.standard_carrier"}

# wrapped name -> metric family credited with its self time
FAMILY = {
    "vrel.reflexive_transitive_closure": "vrel.closure",
    "vrel.compose": "vrel.compose",
    "space.validate_space": "space.validate",
    "space.is_continuous": "space.continuity",
    "space.continuity_witness": "space.continuity",
    "space.continuous_maps": "space.maps",
    "space.exponential": "space.exponential",
    "space.exponentiability_witness": "space.exponentiability",
    "space.is_exponentiable": "space.exponentiability",
    "space.product": "space.product",
    "enumeration.all_valid_spaces": "enumeration.valid_spaces",
    "enumeration.all_valid_spaces_upto": "enumeration.valid_spaces",
    "enumeration.iso_canonical_key": "enumeration.iso_key",
    "enumeration.compact_hausdorff_spaces": "generation.class_build",
    "generation.ProbeClass.__init__": "generation.class_build",
    "generation.ProbeClass.explicit": "generation.class_build",
    "generation.ProbeClass.compact_hausdorff_upto": "generation.class_build",
    "generation.ProbeClass.sierpinski": "generation.class_build",
    "textio.resolve_class": "generation.class_build",
    "generation.ProbeClass.probes_into": "generation.probes",
    "generation.enumerate_probes": "generation.probes",
    "generation.ProbeClass.coreflect": "generation.coreflect",
    "generation.c_generated_structure": "generation.coreflect",
    "generation.is_c_generated": "generation.coreflect",
    "generation.cmap_space": "generation.cmap",
    "quasi.saturate_admissible": "quasi.saturate",
    "quasi.validate_quasi": "quasi.validate",
    "quasi.quasi_continuous_maps": "quasi.maps",
    "quasi.is_quasi_continuous": "quasi.maps",
    "quasi.exponential_quasi": "quasi.exponential",
    "textio.parse_workspace": "textio.parse",
    "textio.print_space": "textio.print",
    "textio.print_quasi": "textio.print",
    "textio.print_map": "textio.print",
    "textio.print_quantale": "textio.print",
    "textio.print_workspace": "textio.print",
    "cli.main": "cli.main",
}

# span name -> counter incremented once per call
CALLS = {
    "vrel.reflexive_transitive_closure": "vrel.closure.calls",
    "vrel.compose": "vrel.compose.calls",
    "space.validate_space": "space.validate.calls",
    "space.continuity_witness": "space.continuity.calls",
    "enumeration.iso_canonical_key": "enumeration.iso_key.calls",
    "generation.ProbeClass.coreflect": "generation.coreflect.calls",
    "quasi.is_covered": "quasi.cover_searches",
    "textio.parse_workspace": "textio.parse.calls",
}

# (candidate test, searching parent) -> candidate counter
CANDIDATES = {
    ("space.is_continuous", "space.continuous_maps"): "space.maps.candidates",
    ("space.is_continuous", "generation.ProbeClass.probes_into"):
        "generation.probes.candidates",
    ("quasi.is_quasi_continuous", "quasi.quasi_continuous_maps"):
        "quasi.maps.candidates",
    ("enumeration.square_is_lax_algebra", "enumeration.all_valid_spaces"):
        "enumeration.valid_spaces.candidates",
}

# searching span -> counter of results kept (when it tested any candidate)
KEPT = {
    "space.continuous_maps": "space.maps.kept",
    "generation.ProbeClass.probes_into": "generation.probes.kept",
    "quasi.quasi_continuous_maps": "quasi.maps.kept",
}

SELF_MS = ("vrel.closure", "vrel.compose", "space.validate",
           "space.continuity", "space.maps", "space.exponential",
           "space.exponentiability", "space.product",
           "enumeration.valid_spaces", "enumeration.iso_key",
           "generation.class_build", "generation.probes",
           "generation.coreflect", "generation.cmap", "quasi.saturate",
           "quasi.validate", "quasi.maps", "quasi.exponential",
           "textio.parse", "textio.print", "cli.main",
           # layer time outside any family; in enumeration, textio and cli
           # every wrapped function sits under a family, so those stay 0
           "quantale.other", "vrel.other", "monad.other", "space.other",
           "generation.other", "quasi.other")

COUNTS = ("vrel.closure.calls", "vrel.compose.calls", "space.validate.calls",
          "space.continuity.calls", "space.maps.candidates",
          "space.maps.kept", "enumeration.valid_spaces.candidates",
          "enumeration.valid_spaces.kept", "enumeration.iso_key.calls",
          "generation.probes.candidates", "generation.probes.kept",
          "generation.coreflect.calls", "quasi.cover_searches",
          "quasi.maps.candidates", "quasi.maps.kept", "textio.parse.calls",
          "textio.parse.bytes")

# per-scalar methods counted by ScalarCounter: (module, classes, methods, key)
SCALAR = (
    ("quantale", ("FiniteQuantale", "CostQuantale"),
     ("tensor", "join2", "meet", "hom", "heyting", "leq"),
     "quantale.scalar_ops"),
    ("quantale", ("Quantale",), ("_check",), "quantale.check_calls"),
    ("vrel", ("VRel",), ("get",), "vrel.get_calls"),
    ("monad", ("IdentityMonad", "FiniteUltrafilterMonad"),
     ("apply_carrier", "apply_map", "lift_relation", "unit", "mult",
      "retraction"), "monad.calls"),
)
SCALAR_COUNTS = tuple(dict.fromkeys(key for *_, key in SCALAR))


def _modules():
    """The layer modules that exist.

    A layer that a later refactor removes then reads 0 instead of stopping
    the traced run; the same holds for the classes named below.
    """
    found = {name: sys.modules.get(f"tvspaces.{name}") for name in MODULES}
    return {name: module for name, module in found.items() if module}


def _classes(mods, layer, names):
    module = mods.get(layer)
    return [cls for cls in (getattr(module, name, None) for name in names)
            if cls is not None]


def _namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "tvspaces"
                                  or name.startswith("tvspaces."))]


class _Patcher:
    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved = []


class SpanTracer(_Patcher):
    """Span recorder; ``op_id`` is set by the caller before each operation."""

    def __init__(self):
        super().__init__()
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_id = -1
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []

    # -- installation -----------------------------------------------------------

    def install(self):
        mods = _modules()
        namespaces = _namespaces()
        for layer, module in mods.items():
            for name, fn in list(vars(module).items()):
                qual = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or qual in UNWRAPPED):
                    continue
                wrapper = self._wrap(qual, fn)
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self.set(ns, bound, wrapper)
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                for cls in _classes(mods, layer, (cls_name,)):
                    self._wrap_methods(layer, cls, methods)

    def _wrap_methods(self, layer, cls, methods):
        for method in methods:
            raw = cls.__dict__.get(method)
            if raw is None:
                continue
            qual = f"{layer}.{cls.__name__}.{method}"
            if isinstance(raw, staticmethod):
                self.set(cls, method,
                         staticmethod(self._wrap(qual, raw.__func__)))
            else:
                self.set(cls, method, self._wrap(qual, raw))

    def _wrap(self, qual, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(qual, fn)
        name_id = self._name_id(qual)
        family = FAMILY.get(qual)
        calls = CALLS.get(qual)
        kept = KEPT.get(qual)
        parse = qual == "textio.parse_workspace"
        counts = self.counts
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls:
                counts[calls] += 1
            if parse:
                counts["textio.parse.bytes"] += len(args[0].encode("utf-8"))
            frame = enter(name_id, qual, family)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if kept and frame[4]:
                counts[kept] += len(result)
            return result
        return wrapper

    def _wrap_generator(self, qual, fn):
        """Each resume of the generator is a span; yields count as kept."""
        name_id = self._name_id(qual)
        family = FAMILY.get(qual)
        counts = self.counts
        kept = "enumeration.valid_spaces.kept" \
            if qual == "enumeration.all_valid_spaces" else None
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = enter(name_id, qual, family)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    if kept:
                        counts[kept] += 1
                    yield item
            finally:
                inner.close()
        return wrapper

    def _name_id(self, qual):
        if qual not in self._name_ids:
            self._name_ids[qual] = len(self.names)
            self.names.append(qual)
        return self._name_ids[qual]

    # -- span bookkeeping ----------------------------------------------------------

    def _enter(self, name_id, qual, family):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            candidate = CANDIDATES.get((qual, parent[5]))
            if candidate:
                self.counts[candidate] += 1
                parent[4] += 1
        if family is None:
            family = self._credit(qual)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        # [index, start, family, child seconds, candidates tested, name]
        frame = [index, 0.0, family, 0.0, 0, qual]
        stack.append(frame)
        start = time.perf_counter()
        frame[1] = start
        self.span_start.append(start)
        return frame

    def _credit(self, qual):
        """Family of the nearest enclosing span of the same layer."""
        layer = qual.split(".", 1)[0]
        for frame in reversed(self._stack):
            if frame[5].split(".", 1)[0] == layer:
                return frame[2]
        return f"{layer}.other"

    def _leave(self, frame):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        self.span_end[frame[0]] = end
        self.self_s[frame[2]] += duration - frame[3]
        if stack:
            stack[-1][3] += duration

    # -- results -------------------------------------------------------------------

    def metrics(self):
        out = {}
        for family in SELF_MS:
            out[f"{family}.self_ms"] = (self.self_s[family] * 1000, "ms")
        for key in COUNTS:
            out[key] = (self.counts[key], "count")
        return out

    def dump(self, handle):
        """Write the spans as JSON: a name table and one row per span."""
        handle.write('{"names": ' + json.dumps(self.names)
                     + ', "columns": ["name", "start_s", "end_s", "parent", '
                       '"op"], "spans": [')
        for i in range(len(self.span_start)):
            if i:
                handle.write(",")
            handle.write(f"[{self.span_name[i]},{self.span_start[i]:.7f},"
                         f"{self.span_end[i]:.7f},{self.span_parent[i]},"
                         f"{self.span_op[i]}]")
        handle.write("]}\n")


class ScalarCounter(_Patcher):
    """Call counts of the per-scalar methods, without spans."""

    def __init__(self):
        super().__init__()
        self.cells = {key: [0] for key in SCALAR_COUNTS}

    def install(self):
        mods = _modules()
        for layer, classes, methods, key in SCALAR:
            cell = self.cells[key]
            for cls in _classes(mods, layer, classes):
                for method in methods:
                    if method in cls.__dict__:
                        self.set(cls, method,
                                 _counting(cls.__dict__[method], cell))

    def metrics(self):
        return {key: (cell[0], "count") for key, cell in self.cells.items()}


def _counting(fn, cell):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper
