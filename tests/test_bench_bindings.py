"""The benchmark binds package names: its tracer by name, its output
checks by use.

``bench/spans.py`` wraps each function in its ``LAYERS`` table; a name
that no longer resolves breaks ``bench/run.py --trace 1``, and nothing in
``src/`` would notice, since the engine never calls some of them:
``gram_submatrix``, ``is_negative_definite`` and ``is_big`` are kept
for the tracer and as test references, and ``solve_exact`` runs only in
the dense branch of the Zariski solve.
``bench/checks.py`` reads more of the program, outside ``LAYERS``.
"""

import ast
import importlib
import importlib.util
import json
import random
from pathlib import Path

from conftest import random_klt_pair
from pklt_lab.report import full_report

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def traced_layers() -> dict:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no LAYERS table")


def test_every_traced_function_resolves():
    layers = traced_layers()
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"pklt_lab.{layer}"), name, None)
        )
    ]
    assert layers and missing == []


def bench_checks():
    """``bench/checks.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_invariants_hold_below_the_top():
    """The benchmark's output check reads the program outside ``LAYERS``:
    ``SurfaceModel.levels``, ``Level.curve(...).display``,
    ``potential.anti_log_canonical`` and ``surface.total_transform``, all
    of them only for a pair below the top.  On such pairs, with the report
    as the benchmark serializes it, it finds nothing wrong."""
    checks = bench_checks()
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        pair = random_klt_pair(rng)
        if pair.level == pair.model.top:
            continue
        report = json.loads(json.dumps(full_report(pair), indent=2))
        assert checks.report_invariants(pair, report) is None
        checked += 1
