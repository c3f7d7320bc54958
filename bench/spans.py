"""Span recorder that wraps pklt-lab's public functions from outside.

``from .x import y`` binds ``y`` again in the importing module, so each
function is replaced at every module of the package that binds it.  The
program's source is not touched.  Spans (name, start, end, parent) are
kept in memory and aggregated, or written out, after the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

PACKAGE = "pklt_lab"

LAYERS = {
    "lattice": ("intersect", "gram_submatrix", "solve_exact",
                "is_negative_definite", "signature"),
    "surface": ("blow_up", "validate", "total_transform", "pull_back"),
    "modelio": ("parse_model",),
    "zariski": ("zariski_decompose", "is_big"),
    "potential": ("make_pair", "potential_ledger", "classify_pair",
                  "fano_type_test", "eps_spnklt"),
    "rcc": ("incidence_graph", "surface_rcc_via_pnklt"),
    "report": ("full_report",),
    "corpus": ("run_examples",),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
OP = 0  # span name index of one whole benchmark op


class Recorder:
    """Records spans while installed; the originals run when it is not."""

    def __init__(self):
        self.names = ("op",) + FUNCTIONS
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []
        modules = [
            m for k, m in sys.modules.items()
            if k == PACKAGE or k.startswith(PACKAGE + ".")
        ]
        for index, qualified in enumerate(FUNCTIONS, 1):
            layer, fn = qualified.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn)
            wrapper = self._wrap(original, index)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, fn, index):
        def traced(*args, **kwargs):
            return self.call(index, fn, *args, **kwargs)
        return traced

    def call(self, index, fn, *args, **kwargs):
        """Run fn inside a span named names[index]."""
        i = len(self.name)
        self.name.append(index)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).  Self time is a span's
        duration minus the time its child spans cover."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, n in enumerate(self.name):
            calls[n] += 1
            own[n] += self.end[i] - self.start[i] - child[i]
        return {n: (calls[k], own[k]) for k, n in enumerate(self.names)}

    def write(self, path) -> None:
        """A JSON header line, then one "name start end parent" line per
        span; name indexes the header's names, parent the span lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent"]}))
            fh.write("\n")
            for row in zip(self.name, self.start, self.end, self.parent):
                fh.write("%d %.9f %.9f %d\n" % row)
