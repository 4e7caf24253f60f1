"""Outside-in layer tracing of the wittgrass package.

`Tracer.install` rebinds each public layer function listed in `LAYERS` in
every ``wittgrass`` module namespace that holds it, so that calls made
through ``from .diagrams import enumerate_even`` and through module
attributes alike pass through a wrapper.  No file of the package is edited.

Each wrapped call records a span (id, parent id, name, start, end, operation
id) in memory.  A layer function's self time is its span minus the spans of
the wrapped calls it made.  Counts that feed the per-layer ratios are taken
from the wrapped calls' arguments and results, so they repeat exactly from
run to run.  The tracing overhead is estimated from the calls made and the
cost of one wrapped call, timed on a no-op function: on a multi-second
iteration it is far smaller than the run-to-run spread of wall times, so
the difference between a traced and an untraced iteration cannot show it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Public functions per package module.  Names are "<module>.<function>".
LAYERS = {
    "diagrams": ("enumerate_even",),
    "picard": ("verify_cond_even", "pushforward_admissible",
               "canonical_in_pullback_span"),
    "intmatrix": ("diagonalize", "integer_kernel", "solve_in_span",
                  "rank_mod_p"),
    "witt_modules": ("build_basis", "map_matrix", "verify_exactness",
                     "verify_degree_transport"),
    # total_witt_basis is not wrapped: no workload of BENCHMARK.json calls
    # it, so its figures would always read 0 (on large-frame-12 its time
    # counts towards the self time of its caller)
    "grassmann_witt": ("duality_check", "bord_vanishes", "induction_report"),
}

# The span around one `cli.main` call; its self time is parsing, rendering
# and JSON encoding, everything the wrapped layer functions do not cover.
OPERATION = "cli"


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _shape(matrix) -> tuple[int, int]:
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        return int(shape[0]), int(shape[1])
    rows = len(matrix)
    return rows, (len(matrix[0]) if rows else 0)


class Tracer:
    """Spans and counts of one process; install once, read with `summary`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [id, name, start, child seconds, parent]
        self._ids = itertools.count()
        self._op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.diagonalize_cells = 0
        self.map_entries = 0
        self.exactness_positions = 0
        self.map_triples: set = set()
        self.frames_enumerated: set = set()

    # -- counts taken from arguments and results ---------------------------

    def _count_diagonalize(self, args, result) -> None:
        m, n = _shape(args["A"])
        self.diagonalize_cells += m * n

    def _count_map_matrix(self, args, result) -> None:
        self.map_triples.add((args["which"], args["d"], args["e"]))
        # Entries of the dense matrix the call returned; a map that carries
        # no dense matrix field builds none.
        dense = vars(result).get("matrix")
        if dense is not None:
            self.map_entries += len(dense) * (len(dense[0]) if dense else 0)

    def _count_verify_exactness(self, args, result) -> None:
        self.exactness_positions += len(result.positions)

    def _count_enumerate_even(self, args, result) -> None:
        self.frames_enumerated.add((args["d"], args["e"]))

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([next(self._ids), name, time.perf_counter(), 0.0, parent])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child, parent = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent, name, start, end, self._op))

    def _counter(self, name: str):
        return {
            "intmatrix.diagonalize": self._count_diagonalize,
            "witt_modules.map_matrix": self._count_map_matrix,
            "witt_modules.verify_exactness": self._count_verify_exactness,
            "diagrams.enumerate_even": self._count_enumerate_even,
        }.get(name)

    def _wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                counter(signature.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every listed function in each wittgrass module that holds it."""
        importlib.import_module("wittgrass.cli")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "wittgrass" or name.startswith("wittgrass.")]
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"wittgrass.{layer}")
            for fn_name in fns:
                original = getattr(module, fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(name, original, self._counter(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    @contextmanager
    def operation(self):
        """Span of one CLI operation; spans inside it carry its id."""
        self._op += 1
        self._enter(OPERATION)
        try:
            yield
        finally:
            self._exit()

    # -- output ---------------------------------------------------------------

    def overhead_s(self, samples: int = 20000) -> float:
        """Estimated seconds the wrappers added to the calls traced so far.

        The extra cost of a wrapped call over a bare one is timed on a no-op
        function, with and without argument counting, and multiplied by the
        number of calls of each kind.
        """
        def noop(x):
            return x

        def per_call(fn) -> float:
            start = time.perf_counter()
            for i in range(samples):
                fn(i)
            return (time.perf_counter() - start) / samples

        probe = Tracer()
        bare = per_call(noop)
        plain = per_call(probe._wrap("probe", noop)) - bare
        counted = per_call(probe._wrap("probe", noop, lambda args, result: None)) - bare
        return sum(calls * (counted if self._counter(name) else plain)
                   for name, calls in self.calls.items())

    def summary(self) -> dict:
        """Calls, self seconds, overhead and the counts behind the ratios."""
        names = traced_names() + [OPERATION]
        return {
            "calls": {n: self.calls[n] for n in names},
            "self_s": {n: self.self_s[n] for n in names},
            "overhead_s": self.overhead_s(),
            "counts": {
                "intmatrix.diagonalize.cells": self.diagonalize_cells,
                "witt_modules.map_matrix.entries": self.map_entries,
                "witt_modules.exactness_positions": self.exactness_positions,
                "witt_modules.map_triples": len(self.map_triples),
                "diagrams.frames_enumerated": len(self.frames_enumerated),
            },
        }

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
