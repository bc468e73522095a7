"""Per-layer spans and construction counts for the traced run.

A span wraps one public breakops function.  The wrapper replaces every
reference to the function in every loaded breakops module, because callers
look functions up where they imported them: ``operator`` holds its own
``solve_xi``, ``fsystem`` its own ``apply_imaginary_gegenbauer``.  A span's
self time is its duration minus the durations of the spans it encloses;
several functions may share one layer name, and their self times add up.

``GaussianRational`` and ``Poly`` are built millions of times, too often and
too briefly for a span each, so their ``__init__`` only counts calls.

Spans are aggregated per pass in memory; nothing is written while a pass
runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, function, layer): the layer name is the metric prefix.
SPANS = (
    ("fsystem", "assemble_system", "fsystem.assemble_system"),
    ("fsystem", "nullspace", "fsystem.nullspace"),
    ("fsystem", "apply_L", "fsystem.apply_L"),
    ("closedform", "closed_solution", "closedform.closed_solution"),
    ("closedform", "dual_solution", "closedform.dual_solution"),
    ("operator", "symbol_psi", "operator.symbol_psi"),
    ("operator", "symbol_to_operator", "operator.symbol_to_operator"),
    ("operator", "emit_operator", "operator.emit_operator"),
    ("operator", "compare_up_to_scalar", "operator.compare_up_to_scalar"),
    ("gegenbauer", "apply_gegenbauer", "gegenbauer.apply"),
    ("gegenbauer", "apply_imaginary_gegenbauer", "gegenbauer.apply"),
    ("gegenbauer", "gegenbauer", "gegenbauer.build"),
    ("gegenbauer", "gegenbauer_it", "gegenbauer.build"),
    ("hypergeom", "hyper", "hypergeom.hyper"),
    ("sweep", "evaluate_task", "sweep.evaluate_task"),
    ("cli", "main", "cli.main"),
    ("verify", "gegenbauer_suite", "verify.gegenbauer_suite"),
    ("verify", "hypergeom_suite", "verify.hypergeom_suite"),
)
# (module, class, counter): constructions counted through __init__.
CONSTRUCTIONS = (
    ("rational", "GaussianRational", "rational.gaussian_made"),
    ("poly", "Poly", "poly.poly_made"),
)
MATRIX_CELLS = "fsystem.matrix_cells"


def layer_names() -> list[str]:
    return list(dict.fromkeys(layer for _, _, layer in SPANS))


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer in layer_names():
        names += [f"{layer}_s", f"{layer}_calls"]
    names.append(MATRIX_CELLS)
    names += [counter for _, _, counter in CONSTRUCTIONS]
    return names


class Tracer:
    """Installs the span wrappers and constructor counters, and removes them."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "breakops" or name.startswith("breakops.")]
        for module_name, fn_name, layer in SPANS:
            original = getattr(importlib.import_module(f"breakops.{module_name}"), fn_name)
            after = self._count_cells if layer == "fsystem.assemble_system" else None
            wrapper = self._span(layer, original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        for module_name, cls_name, counter in CONSTRUCTIONS:
            cls = getattr(importlib.import_module(f"breakops.{module_name}"), cls_name)
            self._replace(cls, "__init__", self._counted(counter, cls.__init__))
        return self

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def take(self) -> dict[str, float]:
        """This pass's metrics; resets the tallies for the next pass."""
        if self._open:
            raise RuntimeError("a pass ended inside an open span")
        out = {}
        for layer in layer_names():
            out[f"{layer}_s"] = float(self.self_s[layer])
            out[f"{layer}_calls"] = self.counts[layer]
        out[MATRIX_CELLS] = self.counts[MATRIX_CELLS]
        for _, _, counter in CONSTRUCTIONS:
            out[counter] = self.counts[counter]
        self.self_s.clear()
        self.counts.clear()
        return out

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_cells(self, matrix) -> None:
        self.counts[MATRIX_CELLS] += matrix.nrows * matrix.ncols

    def _span(self, layer, fn, after):
        open_spans, self_s, counts, clock = self._open, self.self_s, self.counts, time.perf_counter

        def span(*args, **kwargs):
            counts[layer] += 1
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                self_s[layer] += duration - children[0]
                if open_spans:
                    open_spans[-1][0] += duration
            if after is not None:
                after(result)
            return result

        return span

    def _counted(self, counter, init):
        counts = self.counts

        def __init__(self, *args, **kwargs):
            counts[counter] += 1
            init(self, *args, **kwargs)

        return __init__
