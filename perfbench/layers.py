"""Per-layer spans and counters, wrapped around the program from outside.

The tracer replaces public functions and methods of the program's modules by
wrappers that record a span (id, layer, start, end, parent id) on the
calibrated clock and bump counters.  Nothing inside the program changes:
``uninstall()`` puts every original back.  Operand sizes are read through
``term_count()`` only, so the counters keep their meaning under any
representation of ``LaurentPoly``.

A layer's self time is its spans' durations minus the part covered by child
spans; because the clock stands still while the calibration probe runs, the
probe's time is excluded too.  ``calls`` counts entries into a layer from
outside it, so a layer calling itself (``equal_rational`` -> ``==``) is one
call.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import defaultdict

PACKAGE = "symgroupoid"

# Dunder methods traced by "Class.*": construction and arithmetic.  Item
# access is left out, being far too fine-grained to carry a span.
_TRACED_DUNDERS = {"__init__", "__mul__", "__rmul__", "__add__", "__sub__", "__eq__"}


def _mul_counts(tracer, args, result):
    a, b = args
    na = a.term_count()
    nb = b.term_count() if hasattr(b, "term_count") else 1
    tracer.counts["laurent.mul.term_pairs"] += na * nb
    tracer.peak("laurent.mul.max_terms", max(na, nb, result.term_count()))


def _div_counts(tracer, args, result):
    if result is not None:
        tracer.counts["laurent.div.divided"] += 1


def _eval_counts(tracer, args, result):
    tracer.counts["laurent.eval.terms"] += args[0].term_count()


# (layer, counter prefix or None, module, targets, count hook).  A target is
# "func", "Class.method", or "Class.*" for every public method of the class
# plus its arithmetic dunders; "*" is every public function of the module.
LAYERS = (
    ("laurent.mul", "laurent.mul", "laurent", ("LaurentPoly.__mul__", "LaurentPoly.__rmul__"), _mul_counts),
    ("laurent.div", "laurent.div", "laurent", ("exact_poly_div",), _div_counts),
    ("laurent.eval", "laurent.eval", "laurent", ("LaurentPoly.evaluate",), _eval_counts),
    ("laurent.deriv", "laurent.deriv", "laurent", ("LaurentPoly.derivative",), None),
    ("laurent.subst", "laurent.subst", "laurent", ("RationalFn.substitute", "substitute_mixed"), None),
    ("laurent.equal", "laurent.equal", "laurent", ("RationalFn.__eq__", "equal_rational"), None),
    ("teich.telescopic", "teich.telescopic", "teich", ("telescopic",), None),
    ("teich.skein", None, "teich", ("skein_product", "skein_complete"), None),
    ("teich.twist", None, "teich", ("braid_twist", "matrix_braid"), None),
    ("quiver.mutate", "quiver.mutate", "quiver", ("mutate", "Quiver.mutate_matrix"), None),
    ("quiver.bracket", "quiver.bracket", "quiver", ("poisson_bracket",), None),
    ("quiver.bracket_at", "quiver.bracket_at", "quiver", ("bracket_value_at",), None),
    ("matrices", "matrices", "matrices", ("MatrixRF.*", "*"), None),
    ("intlinalg", None, "intlinalg", ("IntMatrix.*", "*"), None),
    ("network", None, "network", ("SquareNetwork.*", "*"), None),
    ("sl2rep", None, "sl2rep", ("*",), None),
    ("groupoid.transport", "groupoid.transport", "groupoid", ("generic_transport_pair",), None),
    ("groupoid", None, "groupoid", ("RMatrix.*", "*"), None),
    ("suites.build", None, "suites", ("build_suite",), None),
    ("report.checks", None, "report", ("run_suite_checks",), None),
)

# Layers whose time is the program's own work; the two outer layers only
# bracket set-up and checks.
OUTER_LAYERS = ("suites.build", "report.checks")


class Tracer:
    """Spans and counters kept in memory; ``write()`` saves the spans."""

    def __init__(self, now):
        self.now = now
        self.stack: list = []  # frames [layer, start, child time, span id]
        # finished spans as parallel arrays: a few dozen bytes per span, where
        # tuples would take several times that on the pointwise workload
        self.layer_names = [spec[0] for spec in LAYERS]
        self.span_id = array("q")
        self.span_layer = array("B")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._next_id = 0
        self._undo: list = []
        # targets the program no longer has; their layer then reads low, and
        # the run's log names them
        self.missing: list = []

    def peak(self, name: str, value: int) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    def wrap(self, layer: str, counter: str | None, fn, hook):
        tracer = self
        calls_key = counter + ".calls" if counter else None
        retries_key = counter + ".retries" if counter == "groupoid.transport" else None
        layer_no = self.layer_names.index(layer)

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != layer
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [layer, tracer.now(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if outer and hook is not None:
                    hook(tracer, args, result)
            except ZeroDivisionError:
                if outer and retries_key:
                    tracer.counts[retries_key] += 1
                raise
            finally:
                end = tracer.now()
                stack.pop()
                dur = end - frame[1]
                tracer.self_s[layer] += dur - frame[2]
                if outer:
                    tracer.total_s[layer] += dur
                    if calls_key:
                        tracer.counts[calls_key] += 1
                if parent is not None:
                    parent[2] += dur
                tracer.span_id.append(sid)
                tracer.span_layer.append(layer_no)
                tracer.span_start.append(frame[1])
                tracer.span_end.append(end)
                tracer.span_parent.append(parent[3] if parent else -1)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {}
        for _layer, _counter, mod, _targets, _hook in LAYERS:
            try:
                modules[mod] = importlib.import_module(f"{PACKAGE}.{mod}")
            except ModuleNotFoundError:
                self.missing.append(f"{PACKAGE}.{mod}")
        package_modules = [
            m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrapped_ids = set()
        for layer, counter, mod, targets, hook in LAYERS:
            module = modules.get(mod)
            for target in targets if module else ():
                for owner, raw in _resolve(module, target, self.missing):
                    if id(raw) in wrapped_ids:
                        continue
                    self._replace(layer, counter, hook, owner, raw, package_modules)
                    wrapped_ids.add(id(raw))

    def _replace(self, layer, counter, hook, owner, raw, package_modules):
        if inspect.isclass(owner):
            # aliases such as __rmul__ = __mul__ share one wrapper
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            traced = self.wrap(layer, counter, fn, hook)
            for name, value in list(vars(owner).items()):
                if value is raw:
                    new = type(raw)(traced) if isinstance(raw, (classmethod, staticmethod)) else traced
                    setattr(owner, name, new)
                    self._undo.append((owner, name, raw))
            return
        traced = self.wrap(layer, counter, raw, hook)
        # every module that imported the function by name calls its own copy
        for module in package_modules:
            for name, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, name, traced)
                    self._undo.append((module, name, raw))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metric values named as in BENCHMARK.json."""
        out = {}
        for layer, counter, _mod, _targets, _hook in LAYERS:
            if layer in OUTER_LAYERS:
                continue
            if counter:
                out[counter + ".calls"] = self.counts[counter + ".calls"]
        for name in (
            "laurent.mul.term_pairs",
            "laurent.mul.max_terms",
            "laurent.div.divided",
            "laurent.eval.terms",
            "groupoid.transport.retries",
        ):
            out[name] = self.counts[name]
        inner = 0.0
        for layer, _counter, _mod, _targets, _hook in LAYERS:
            if layer in OUTER_LAYERS or layer == "groupoid.transport":
                continue
            out[layer + ".self_s"] = self.self_s[layer]
            inner += self.self_s[layer]
        # generic_transport_pair is groupoid work: its self time joins the
        # groupoid layer's, its counters stay separate
        out["groupoid.self_s"] += self.self_s["groupoid.transport"]
        inner += self.self_s["groupoid.transport"]
        out["suites.build_s"] = self.total_s["suites.build"]
        out["report.checks_s"] = self.total_s["report.checks"]
        out["trace.wall_s"] = wall_s
        out["trace.uncovered_share"] = (wall_s - inner) / wall_s
        return out

    def write(self, path: str) -> None:
        """Spans as gzip TSV: id, layer, start, end, parent id (-1 at the top)."""
        names = self.layer_names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tlayer\tstart_s\tend_s\tparent\n")
            for sid, no, start, end, parent in zip(
                self.span_id, self.span_layer, self.span_start, self.span_end, self.span_parent
            ):
                fh.write(f"{sid}\t{names[no]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _resolve(module, target: str, missing: list):
    """Yield (owner, raw object) for a target spec; record targets not found."""
    owner_name, _, name = target.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None or (name != "*" and name not in vars(owner)):
        missing.append(f"{module.__name__}.{target}")
        return
    if name != "*":
        yield owner, vars(owner)[name]
        return
    for attr, value in list(vars(owner).items()):
        if owner is module:
            # functions defined here, not imported ones or wrappers
            if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                yield owner, value
        elif (not attr.startswith("_") or attr in _TRACED_DUNDERS) and (
            inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod))
        ):
            yield owner, value
