"""Embedded golden corpus: the surface examples the engine must reproduce.

Each entry is a model file and its stored expected report in ``corpus/``;
the ``examples`` subcommand loads each model as the CLI loads a user's
file, recomputes its report and diffs the two field by field.
"""

from __future__ import annotations

import os

from .modelio import load_model, read_json
from .potential import make_pair
from .report import full_report

# the entries, in the order examples prints them
NAMES = ("ruled_blowup_g2e3", "ruled_blowup_g2e4", "ruled_blowup_g3e5",
         "hirzebruch_e1", "hirzebruch_e2", "hirzebruch_e3", "hirzebruch_e5",
         "cubic12", "weak_del_pezzo_f3")


def entry_file(name: str, kind: str) -> str:
    """The path of an entry's ``model`` or ``expected`` file."""
    return os.path.join(os.path.dirname(__file__), "corpus",
                        f"{name}.{kind}.json")


def expected_report(name: str) -> dict:
    return read_json(entry_file(name, "expected"))


def diff_json(expected, actual, path="") -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            p = f"{path}/{key}"
            if key not in expected:
                out.append(f"{p}: unexpected field {actual[key]!r}")
            elif key not in actual:
                out.append(f"{p}: missing (expected {expected[key]!r})")
            else:
                out.extend(diff_json(expected[key], actual[key], p))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)}, expected {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(diff_json(e, a, f"{path}/{i}"))
        return out
    if expected != actual:
        return [f"{path}: {actual!r}, expected {expected!r}"]
    return []


def run_examples() -> list[dict]:
    """Recompute every corpus entry and diff against the stored report."""
    results = []
    for name in NAMES:
        loaded = load_model(entry_file(name, "model"))
        pair = make_pair(loaded.model, loaded.pair_level, loaded.delta())
        diffs = diff_json(expected_report(name), full_report(pair))
        results.append({"name": name, "ok": not diffs, "diffs": diffs})
    return results

