"""The benchmark's tracer binds package functions by name.

``bench/spans.py`` wraps each function in its ``LAYERS`` table; a name
that no longer resolves breaks ``bench/run.py --trace 1``, and nothing in
``src/`` would notice, since the engine never calls some of them:
``gram_submatrix``, ``is_negative_definite``, ``is_big`` and
``potential_ledger`` are kept for the tracer and as test references, and
``solve_exact`` runs only in the dense branch of the Zariski solve.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
