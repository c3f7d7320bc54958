"""Embedded golden corpus: the surface examples the engine must reproduce.

Each entry is a model document plus a stored expected report; the
``examples`` subcommand recomputes every report and diffs field by field.
"""

from __future__ import annotations

import json
from importlib import resources

from .modelio import parse_model
from .potential import make_pair
from .report import full_report


def _ruled_blowup(genus: int, e: int) -> dict:
    return {
        "version": "pklt-lab/1",
        "base": {"kind": "ruled", "genus": genus, "e": e},
        "blowups": [{"id": "E1", "on": [{"curve": "C0"}], "point": "p1"}],
        "pair": {"level": 1},
    }


def _hirzebruch(e: int) -> dict:
    return {
        "version": "pklt-lab/1",
        "base": {"kind": "ruled", "genus": 0, "e": e},
        "pair": {"level": 0},
    }


def _cubic12() -> dict:
    return {
        "version": "pklt-lab/1",
        "base": {
            "kind": "lattice",
            "basis": ["L"],
            "gram": [["1"]],
            "K": ["-3"],
            "curves": [
                {"id": "L", "class": ["1"], "genus": 0},
                {"id": "C", "class": ["3"], "genus": 1},
            ],
        },
        "blowups": [
            {"id": f"E{i}", "on": [{"curve": "C"}], "point": f"p{i}"}
            for i in range(1, 13)
        ],
        "pair": {"level": 12},
    }


def _weak_del_pezzo_f3() -> dict:
    return {
        "version": "pklt-lab/1",
        "base": {"kind": "ruled", "genus": 0, "e": 3},
        "divisors": {"N": [{"curve": "C0", "coeff": "1/3"}]},
        "pair": {"level": 0, "delta": "N"},
    }


ENTRIES: dict[str, dict] = {
    "ruled_blowup_g2e3": _ruled_blowup(2, 3),
    "ruled_blowup_g2e4": _ruled_blowup(2, 4),
    "ruled_blowup_g3e5": _ruled_blowup(3, 5),
    "hirzebruch_e1": _hirzebruch(1),
    "hirzebruch_e2": _hirzebruch(2),
    "hirzebruch_e3": _hirzebruch(3),
    "hirzebruch_e5": _hirzebruch(5),
    "cubic12": _cubic12(),
    "weak_del_pezzo_f3": _weak_del_pezzo_f3(),
}


def compute_report(name: str) -> dict:
    loaded = parse_model(ENTRIES[name])
    return full_report(make_pair(loaded.model, loaded.pair_level, loaded.delta()))


def expected_report(name: str) -> dict:
    ref = resources.files("pklt_lab") / "corpus" / f"{name}.expected.json"
    return json.loads(ref.read_text(encoding="utf-8"))


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
    for name in ENTRIES:
        diffs = diff_json(expected_report(name), compute_report(name))
        results.append({"name": name, "ok": not diffs, "diffs": diffs})
    return results

