import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pklt_lab as pl
from conftest import serialize_model
from pklt_lab import cli
from pklt_lab.modelio import (
    SchemaError,
    ValidationError,
    load_model,
    parse_model,
)

RULED_BLOWUP = {
    "version": "pklt-lab/1",
    "base": {"kind": "ruled", "genus": 2, "e": 3},
    "blowups": [{"id": "E1", "on": [{"curve": "C0"}], "point": "p1"}],
    "pair": {"level": 1},
}
FANO_TANGENT = {  # (X, 0) at the top is not log-resolution-ready
    "version": "pklt-lab/1",
    "base": {"kind": "ruled", "genus": 0, "e": 3},
    "blowups": [
        {"id": "E1", "on": [{"curve": "f", "mult": 2}], "point": "p1"}
    ],
}


def run_cli(args, capsys):
    code = cli.main(args)
    return code, capsys.readouterr().out


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_zariski_subcommand_expected_values(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    code, out = run_cli(["zariski", path, "--divisor", "antiK"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == {"C0~": "5/3", "E1": "2/3"}
    assert doc["big"] is True
    assert "catalog" in doc["disclaimer"]


def test_zariski_output_is_byte_identical(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    outputs = set()
    for _ in range(3):
        _, out = run_cli(["zariski", path, "--divisor", "antiK"], capsys)
        outputs.add(out)
    assert len(outputs) == 1


def test_zariski_canonical_not_psef_exit_1(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    code, out = run_cli(["zariski", path, "--divisor", "K"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "not-pseudoeffective"


def test_zariski_unknown_divisor_exit_3(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    code, out = run_cli(["zariski", path, "--divisor", "nope"], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "unknown-divisor"


def test_schema_error_exit_2_with_pointer(tmp_path, capsys):
    doc = dict(RULED_BLOWUP, surprise=1)
    code, out = run_cli(["check", write_model(tmp_path, doc)], capsys)
    assert code == 2
    assert "/surprise" in json.loads(out)["detail"]


def test_float_coefficient_rejected(tmp_path, capsys):
    doc = {
        "version": "pklt-lab/1",
        "base": {"kind": "P2"},
        "divisors": {"D": [{"curve": "L", "coeff": 0.5}]},
    }
    code, out = run_cli(["check", write_model(tmp_path, doc)], capsys)
    assert code == 2
    detail = json.loads(out)["detail"]
    assert "float" in detail and "/divisors/D/0/coeff" in detail


def test_validation_error_exit_3(tmp_path, capsys):
    doc = {
        "version": "pklt-lab/1",
        "base": {"kind": "P2"},
        "blowups": [{"id": "E1", "on": [{"curve": "nope"}]}],
    }
    code, out = run_cli(["check", write_model(tmp_path, doc)], capsys)
    assert code == 3
    assert "/blowups/0" in json.loads(out)["detail"]


def lattice_base(gram):
    return {
        "version": "pklt-lab/1",
        "base": {"kind": "lattice", "basis": ["A", "B", "C"][: len(gram)],
                 "gram": gram, "K": ["-3"] * len(gram), "curves": []},
    }


# two distinct catalog curves with A·B = -1, which no surface has
NEGATIVE_PAIR = {
    "version": "pklt-lab/1",
    "base": {"kind": "lattice", "basis": ["L"], "gram": [["1"]], "K": ["-3"],
             "curves": [{"id": "A", "class": ["1"], "genus": 0},
                        {"id": "B", "class": ["-1"], "genus": 0}]},
}

# E1's point is labelled p2, which E2's unlabelled point would default to
DUPLICATE_LABEL = {
    "version": "pklt-lab/1",
    "base": {"kind": "P2"},
    "blowups": [{"id": "E1", "on": [{"curve": "L"}], "point": "p2"},
                {"id": "E2", "on": [{"curve": "L"}]}],
    "divisors": {"D": [{"curve": "L", "coeff": "2"}]},
    "pair": {"level": 0, "delta": "D"},
}

# P¹×P¹: the hyperbolic plane, with its two rulings as the catalog
HYPERBOLIC_PLANE = {
    "version": "pklt-lab/1",
    "base": {"kind": "lattice", "basis": ["F1", "F2"],
             "gram": [["0", "1"], ["1", "0"]], "K": ["-2", "-2"],
             "curves": [{"id": "F1", "class": ["1", "0"], "genus": 0},
                        {"id": "F2", "class": ["0", "1"], "genus": 0}]},
}


def blowups_doc(base, blowups):
    return {"version": "pklt-lab/1", "base": base, "blowups": blowups}


P2 = {"kind": "P2"}
# P² with the genus-1 cubic C = 3H in its catalog
CUBIC_BASE = {"kind": "lattice", "basis": ["H"], "gram": [["1"]], "K": ["-3"],
              "curves": [{"id": "C", "class": ["3"], "genus": 1}]}
ON_C = {"curve": "C"}
# an exceptional named like a basis element: class_json would merge the two
BASIS_LABEL_EXCEPTIONAL = blowups_doc(CUBIC_BASE, [{"id": "H", "on": [ON_C]}])
REPEATED_BASIS_LABEL = blowups_doc(
    {"kind": "lattice", "basis": ["H", "H"],
     "gram": [["1", "0"], ["0", "-1"]], "K": ["-3", "1"],
     "curves": [{"id": "C", "class": ["3", "0"], "genus": 1}]}, [])
# L listed twice: the multiplicity would depend on the order of the entries
REPEATED_ON_CURVE = blowups_doc(
    P2, [{}, {"on": [{"curve": "L", "mult": 2}, {"curve": "L"}]}])

# blow_up's checks on a center, each failing at a center j >= 1 of a
# multi-center document, and the validation error each gives; the first
# five texts are those of the one-center blow_up
CENTER_CHECKS = {
    "unknown-curve": (
        blowups_doc(P2, [{}, {"on": [{"curve": "nope"}]}]),
        "/blowups/1: blow-up center references unknown curve 'nope'"),
    "near-a-base-curve": (
        blowups_doc(P2, [{}, {"near": "E1"}, {"near": "L"}]),
        "/blowups/2: infinitely-near center must sit on an exceptional, "
        "not 'L'"),
    "intersection-budget": (
        blowups_doc({"kind": "ruled", "genus": 2, "e": 3},
                    [{"on": [{"curve": "C0"}, {"curve": "f"}]}] * 2),
        "/blowups/1: intersection budget exceeded for pair ('C0', 'f'): "
        "center consumes 1, intersection number is 0"),
    "exceptional-id-repeated": (
        blowups_doc(P2, [{"id": "E2"}, {"on": [{"curve": "L"}]}]),
        "/blowups/1: exceptional id 'E2' already in catalog"),
    "point-label-repeated": (
        blowups_doc(P2, [{"point": "q"}, {"point": "r"}, {"point": "q"}]),
        "/blowups/2: point label 'q' already names an earlier center"),
    "exceptional-id-is-a-basis-label": (
        blowups_doc(CUBIC_BASE, [{"on": [ON_C]}, {"id": "H", "on": [ON_C]}]),
        "/blowups/1: exceptional id 'H' is a base basis label"),
    "curve-repeated-in-a-center": (
        REPEATED_ON_CURVE,
        "/blowups/1: center lists curve 'L' more than once"),
    "exceptional-id-ends-in-tilde": (
        blowups_doc(P2, [{}, {"id": "L~", "on": [{"curve": "L"}]}]),
        "/blowups/1: exceptional id 'L~' ends in '~', which marks a strict "
        "transform"),
}

# an exceptional named like the strict transform of C0, which prints as
# C0~ too: N and the support would show one name for two curves
TILDE_EXCEPTIONAL = dict(RULED_BLOWUP, blowups=[
    {"id": "C0~", "on": [{"curve": "C0"}], "point": "p1"}])


def lattice_curves_doc(gram, canonical, curves):
    """A lattice base of rank 1 or 2 with the catalog ``curves``, given as
    (id, class, genus)."""
    return blowups_doc({
        "kind": "lattice", "basis": ["H", "A"][: len(gram)], "gram": gram,
        "K": canonical,
        "curves": [{"id": cid, "class": cls, "genus": g}
                   for cid, cls, g in curves]}, [])


# make_base's checks on one catalog curve, and the validation error each
# gives, at the curve's index in /base/curves
CATALOG_CURVE_CHECKS = {
    "curve-id-ends-in-tilde": (
        lattice_curves_doc([["1"]], ["-3"], [("L", ["1"], 0),
                                               ("C~", ["3"], 1)]),
        "/base/curves/1: curve id 'C~' ends in '~', which marks a strict "
        "transform"),
    # a line of genus 5: p_a(L) = 1 + (−3 + 1)/2 = 0
    "genus-above-arithmetic-genus": (
        lattice_curves_doc([["1"]], ["-3"], [("L", ["1"], 5)]),
        "/base/curves/0: curve 'L' has genus 5 above its arithmetic genus "
        "1 + (K.C + C.C)/2 = 0"),
    # K = −2H is not characteristic: K·H + H² = −1 is odd
    "arithmetic-genus-not-an-integer": (
        lattice_curves_doc([["1"]], ["-2"], [("H", ["1"], 0)]),
        "/base/curves/0: curve 'H' has arithmetic genus "
        "1 + (K.C + C.C)/2 = 1/2, not an integer"),
    # on the form with H·A = 1/2 and K = −3H + A: K·A + A² = −7/2
    "arithmetic-genus-not-an-integer-on-a-rational-form": (
        lattice_curves_doc([["1", "1/2"], ["1/2", "-1"]], ["-3", "1"],
                           [("A", ["0", "1"], 0)]),
        "/base/curves/0: curve 'A' has arithmetic genus "
        "1 + (K.C + C.C)/2 = -3/4, not an integer"),
}

# malformed model -> the JSON pointer its validation error names
MALFORMED = {
    "gram-not-square": (lattice_base([["1", "0"]]), "/base"),
    "gram-asymmetric": (lattice_base([["1", "1"], ["0", "-1"]]), "/base"),
    "gram-degenerate": (
        lattice_base([["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]),
        "/base",
    ),
    "point-label-repeated": (DUPLICATE_LABEL, "/blowups/1"),
    "catalog-curves-meet-negatively": (NEGATIVE_PAIR, "/base"),
    "basis-label-repeated": (REPEATED_BASIS_LABEL, "/base"),
    "exceptional-id-is-a-basis-label": (BASIS_LABEL_EXCEPTIONAL, "/blowups/0"),
    "curve-repeated-in-a-center": (REPEATED_ON_CURVE, "/blowups/1"),
    "exceptional-id-ends-in-tilde": (TILDE_EXCEPTIONAL, "/blowups/0"),
    "genus-above-arithmetic-genus": (
        CATALOG_CURVE_CHECKS["genus-above-arithmetic-genus"][0],
        "/base/curves/0"),
    "delta-curve-above-pair-level": (
        dict(RULED_BLOWUP, divisors={"D": [{"curve": "E1", "coeff": "1"}]},
             pair={"level": 0, "delta": "D"}),
        "/divisors/D",
    ),
}
MODEL_COMMANDS = {
    "check": [], "zariski": ["--divisor", "D"], "potential": [],
    "pnklt": [], "classify": [], "fano": [], "rcc": [],
}


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("malformed", sorted(MALFORMED))
def test_malformed_model_is_a_validation_error_not_a_traceback(
    tmp_path, capsys, malformed, command
):
    doc, pointer = MALFORMED[malformed]
    path = write_model(tmp_path, doc)
    code, out = run_cli([command, path, *MODEL_COMMANDS[command]], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "validation"
    assert payload["detail"].startswith(pointer + ":")


def test_negative_catalog_pair_exit_3_plain_and_optimized(tmp_path):
    """make_base rejects two catalog curves that meet negatively: exit 3,
    a validation error at /base naming both curves and their number, with
    or without python -O."""
    path = write_model(tmp_path, NEGATIVE_PAIR)
    for proc in run_plain_and_optimized(["check", path]):
        assert proc.returncode == 3
        assert json.loads(proc.stdout) == {
            "error": "validation",
            "detail": "/base: catalog curves 'A' and 'B' meet negatively: "
                      "intersection number is -1",
        }


def test_repeated_point_label_exit_3_plain_and_optimized(tmp_path):
    path = write_model(tmp_path, DUPLICATE_LABEL)
    for proc in run_plain_and_optimized(["pnklt", path]):
        assert proc.returncode == 3
        assert json.loads(proc.stdout) == {
            "error": "validation",
            "detail": "/blowups/1: point label 'p2' already names an "
                      "earlier center",
        }


@pytest.mark.parametrize("check", sorted(CENTER_CHECKS))
def test_each_center_check_reports_its_center(tmp_path, capsys, check):
    doc, detail = CENTER_CHECKS[check]
    code, out = run_cli(["check", write_model(tmp_path, doc)], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "validation", "detail": detail}


@pytest.mark.parametrize("doc, detail", [
    (BASIS_LABEL_EXCEPTIONAL,
     "/blowups/0: exceptional id 'H' is a base basis label"),
    (REPEATED_BASIS_LABEL, "/base: duplicate basis label 'H'"),
    (REPEATED_ON_CURVE, "/blowups/1: center lists curve 'L' more than once"),
], ids=["exceptional-id-is-a-basis-label", "basis-label-repeated",
        "curve-repeated-in-a-center"])
def test_ambiguous_labels_exit_3_plain_and_optimized(tmp_path, doc, detail):
    """A basis label that names two coordinates, or a curve listed twice in
    one center, is a validation error, not an answer read off the merged
    labels: exit 3 with or without python -O."""
    path = write_model(tmp_path, doc)
    args = ["zariski", path, "--divisor", "antiK"]
    for proc in run_plain_and_optimized(args):
        assert proc.returncode == 3
        assert json.loads(proc.stdout) == {"error": "validation",
                                           "detail": detail}


@pytest.mark.parametrize("check", sorted(CATALOG_CURVE_CHECKS))
def test_each_catalog_curve_check_points_at_its_curve(tmp_path, capsys,
                                                      check):
    doc, detail = CATALOG_CURVE_CHECKS[check]
    code, out = run_cli(["check", write_model(tmp_path, doc)], capsys)
    assert code == 3
    assert json.loads(out) == {"error": "validation", "detail": detail}


def test_tilde_exceptional_id_exit_3_plain_and_optimized(tmp_path):
    """An exceptional named C0~ would print as the strict transform of C0:
    N and its support would name two curves alike.  It is a validation
    error at its blow-up, exit 3 with or without python -O."""
    path = write_model(tmp_path, TILDE_EXCEPTIONAL)
    for command in (["zariski", path, "--divisor", "antiK"],
                    ["potential", path]):
        for proc in run_plain_and_optimized(command):
            assert proc.returncode == 3
            assert json.loads(proc.stdout) == {
                "error": "validation",
                "detail": "/blowups/0: exceptional id 'C0~' ends in '~', "
                          "which marks a strict transform",
            }


def test_genus_above_arithmetic_genus_exit_3_plain_and_optimized(tmp_path):
    """A lattice curve of class L with genus 5 has arithmetic genus 0, so
    no surface has it: check and classify exit 3 with or without -O."""
    doc, detail = CATALOG_CURVE_CHECKS["genus-above-arithmetic-genus"]
    path = write_model(tmp_path, dict(doc, pair={"level": 0}))
    for command in ("check", "classify"):
        for proc in run_plain_and_optimized([command, path]):
            assert proc.returncode == 3
            assert json.loads(proc.stdout) == {"error": "validation",
                                               "detail": detail}


def test_hyperbolic_plane_lattice_is_of_fano_type(tmp_path, capsys):
    """P¹×P¹ as an explicit lattice: its gram has a zero diagonal, and -K
    is ample."""
    path = write_model(tmp_path, HYPERBOLIC_PLANE)
    code, out = run_cli(["classify", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["fano_type"]["value"] is True
    assert doc["fano_type"]["reason"] == "-K big and (X, N) klt"
    assert doc["rcc"] == {
        "applicable": True, "value": True,
        "reason": "pNklt(X, 0) is empty; the surface is rationally connected",
    }


def test_zariski_divisor_curve_above_level_exit_3(tmp_path, capsys):
    doc = dict(RULED_BLOWUP, divisors={"D": [{"curve": "E1", "coeff": "1"}]})
    path = write_model(tmp_path, doc)
    code, out = run_cli(
        ["zariski", path, "--divisor", "D", "--level", "0"], capsys
    )
    assert code == 3
    assert json.loads(out)["detail"].startswith("/divisors/D:")


def test_bad_version_exit_2(tmp_path, capsys):
    doc = dict(RULED_BLOWUP, version="pklt-lab/999")
    code, out = run_cli(["check", write_model(tmp_path, doc)], capsys)
    assert code == 2


# one real input per row of cli.FAILURES -> (exit code, "error" field)
FAILURE_ROWS = {
    "schema": (["check"], dict(RULED_BLOWUP, version="pklt-lab/999"), 2),
    "io": (["check"], None, 2),
    "validation": (["check"], lattice_base([["1", "0"]]), 3),
    "pair": (["fano"], FANO_TANGENT, 3),
    "not-pseudoeffective": (
        ["zariski", "--divisor", "K"], RULED_BLOWUP, 1
    ),
}


@pytest.mark.parametrize("error", sorted(FAILURE_ROWS))
def test_each_library_failure_maps_to_its_exit_code(tmp_path, capsys, error):
    (command, *options), doc, exit_code = FAILURE_ROWS[error]
    path = (write_model(tmp_path, doc) if doc is not None
            else str(tmp_path / "missing.json"))
    code, out = run_cli([command, path, *options], capsys)
    assert code == exit_code
    payload = json.loads(out)
    assert list(payload) == ["error", "detail"]
    assert payload["error"] == error and payload["detail"]
    assert (exit_code, error) in cli.FAILURES.values()


def test_check_subcommand_ok(tmp_path, capsys):
    code, out = run_cli(["check", write_model(tmp_path, RULED_BLOWUP)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["log_resolution_ready"]


def test_potential_subcommand(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    code, out = run_cli(["potential", path, "--eps", "1/6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ledger"]["C0~"]["pa"] == "-5/3"
    assert doc["frakA"] == "-inf"
    assert doc["loci"]["eps0"] == "1/3"
    assert [c["id"] for c in doc["loci"]["eps_spnklt"]] == ["C0~"]


def test_pnklt_subcommand_eps_half(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    code, out = run_cli(["pnklt", path, "--eps", "1/2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [c["id"] for c in doc["loci"]["pnklt"]] == ["C0~"]
    assert sorted(c["id"] for c in doc["loci"]["eps_spnklt"]) == ["C0~", "E1"]


def test_bad_eps_exit_2(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    for bad in ("--eps=-1/2", "--eps=x"):
        code, _ = run_cli(["pnklt", path, bad], capsys)
        assert code == 2


def test_level_outside_tower_exit_2(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    for args in (
        ["zariski", path, "--divisor", "antiK", "--level", "7"],
        ["zariski", path, "--divisor", "antiK", "--level", "-1"],
        ["fano", path, "--level", "5"],
    ):
        code, out = run_cli(args, capsys)
        assert code == 2
        assert json.loads(out)["error"] == "bad-level"


def test_classify_subcommand(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    code, out = run_cli(["classify", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"] == {
        "klt": True, "lc": True,
        "potentially_klt": False, "potentially_lc": False,
    }
    assert doc["fano_type"]["value"] is False
    assert doc["rcc"]["applicable"] and doc["rcc"]["value"] is False


def test_fano_subcommand(tmp_path, capsys):
    f3 = {
        "version": "pklt-lab/1",
        "base": {"kind": "ruled", "genus": 0, "e": 3},
        "pair": {"level": 0},
    }
    code, out = run_cli(["fano", write_model(tmp_path, f3)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["fano_type"]["value"] is True
    assert doc["fano_type"]["N"] == {"C0": "1/3"}


def test_fano_pair_error_exit_3(tmp_path, capsys):
    code, out = run_cli(["fano", write_model(tmp_path, FANO_TANGENT)], capsys)
    assert code == 3
    assert json.loads(out)["error"] == "pair"


def test_rcc_subcommand_inapplicable_exit_1(tmp_path, capsys):
    doc = {
        "version": "pklt-lab/1",
        "base": {"kind": "P2"},
        "divisors": {"D": [{"curve": "L", "coeff": "1/2"}]},
        "pair": {"level": 0, "delta": "D"},
    }
    code, out = run_cli(["rcc", write_model(tmp_path, doc)], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "rcc-inapplicable"


def test_examples_subcommand_all_green(capsys):
    code, out = run_cli(["examples"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["entries"]) == 9
    assert all(e["ok"] for e in doc["entries"])


def test_text_format_smoke(tmp_path, capsys):
    path = write_model(tmp_path, RULED_BLOWUP)
    code, out = run_cli(
        ["zariski", path, "--divisor", "antiK", "--format", "text"], capsys
    )
    assert code == 0
    assert "C0~: 5/3" in out
    assert "\x1b[" not in out  # no ANSI escapes, NO_COLOR or not


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pklt_lab.cli", "examples"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def run_plain_and_optimized(args):
    """The CLI as a fresh process, with and without python -O."""
    src = str(Path(pl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return [
        subprocess.run(
            [sys.executable, *flags, "-m", "pklt_lab.cli", *args],
            capture_output=True, cwd=Path(__file__).resolve().parents[1],
            env=env,
        )
        for flags in ([], ["-O"])
    ]


def test_cli_import_loads_neither_dataclasses_nor_hashlib():
    """A cold start of the CLI pays for none of these modules: dataclasses
    brings inspect, ast and dis, hashlib its OpenSSL binding, and
    importlib.resources pathlib, tempfile and zipfile machinery."""
    src = str(Path(pl.__file__).resolve().parents[1])
    probe = ("import sys, pklt_lab.cli; print(sorted("
             "{'dataclasses', 'hashlib', 'importlib.resources'} "
             "& set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# Two points of L blown up: at level 1, L~ has square 0
TWO_POINTS_ON_L = {
    "version": "pklt-lab/1",
    "base": {"kind": "P2"},
    "blowups": [{"on": [{"curve": "L"}]}, {"on": [{"curve": "L"}]}],
}


@pytest.mark.parametrize("level", [[], ["--level", "1"]])
def test_zariski_of_k_names_a_negative_coefficient_plain_and_optimized(
    tmp_path, level
):
    """The Zariski factor meets a zero pivot on K at either level, yet
    gram(S) is nonsingular: the error is the dense solve's negative
    coefficient in N, not a singular configuration, with or without -O."""
    path = write_model(tmp_path, TWO_POINTS_ON_L)
    for proc in run_plain_and_optimized(
        ["zariski", path, "--divisor", "K", *level]
    ):
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {
            "error": "not-pseudoeffective",
            "detail": "not pseudoeffective against catalog, or catalog "
                      "incomplete (negative coefficient in N)",
        }


def test_huge_json_integer_is_a_schema_error_plain_and_optimized(tmp_path):
    """An integer past the interpreter's digit limit on int/str conversion
    makes json.loads raise ValueError: check exits 2 with a schema error at
    the document root, not a traceback, with or without python -O."""
    doc = json.dumps(dict(RULED_BLOWUP, base={"kind": "ruled", "genus": 2,
                                              "e": 3}))
    path = tmp_path / "model.json"
    path.write_text(doc.replace('"e": 3', '"e": ' + "9" * 4400),
                    encoding="utf-8")
    for proc in run_plain_and_optimized(["check", str(path)]):
        assert (proc.returncode, proc.stderr) == (2, b"")
        payload = json.loads(proc.stdout)
        assert payload["error"] == "schema"
        assert payload["detail"].startswith(": invalid JSON: ")


@pytest.mark.parametrize(
    "args", [["classify", "models/ruled_blowup.json"], ["examples"]]
)
def test_optimized_interpreter_gives_the_same_output(args):
    """Stripping asserts with -O must not change stdout or the exit code."""
    plain, optimized = run_plain_and_optimized(args)
    assert plain.stdout and plain.stdout == optimized.stdout
    assert plain.returncode == optimized.returncode


# F3 blown up at a free point (E1), at C0 ∩ f (E2), on f (E3), at a free
# point (E4) and on E4 (E5).  Every point of F3 lies on a fiber, but E1's
# center is declared free, so the catalog lacks the fiber that would join
# E1 to C0, and pNklt(X, C0 + E1 + 2/3 E2) comes out disconnected although
# -(K+Δ) is big.
DISCONNECTED_PNKLT = {
    "version": "pklt-lab/1",
    "base": {"kind": "ruled", "genus": 0, "e": 3},
    "blowups": [
        {"id": "E1", "point": "p1"},
        {"id": "E2", "on": [{"curve": "C0"}, {"curve": "f"}], "point": "p2"},
        {"id": "E3", "on": [{"curve": "f"}], "point": "p3"},
        {"id": "E4", "point": "p4"},
        {"id": "E5", "on": [{"curve": "E4"}], "point": "p5"},
    ],
    "divisors": {"D": [{"curve": "C0", "coeff": "1"},
                       {"curve": "E1", "coeff": "1"},
                       {"curve": "E2", "coeff": "2/3"}]},
    "pair": {"level": 2, "delta": "D"},
}
PAIR_COMMANDS = ("classify", "potential", "pnklt", "rcc")


@pytest.mark.parametrize("command", PAIR_COMMANDS)
def test_incomplete_catalog_is_exit_1_not_a_traceback(
    tmp_path, capsys, command
):
    path = write_model(tmp_path, DISCONNECTED_PNKLT)
    code, out = run_cli([command, path], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "catalog-incomplete"
    assert payload["invariant"] == "pnklt-connected"
    assert "curve C0, curve E1" in payload["detail"]


def test_invariant_violation_is_neither_pair_nor_psef_error():
    """Callers that turn PairError and NotPseudoeffectiveError into a
    rejection must still see an incomplete catalog as a failure."""
    doc = parse_model(DISCONNECTED_PNKLT)
    pair = pl.make_pair(doc.model, 2, doc.divisor_at("D", 2))
    with pytest.raises(pl.InvariantViolation) as exc:
        pl.classify_pair(pair)
    assert exc.value.invariant == "pnklt-connected"
    assert not isinstance(exc.value,
                          (pl.PairError, pl.NotPseudoeffectiveError))


def test_incomplete_catalog_same_under_optimized_interpreter(tmp_path):
    path = write_model(tmp_path, DISCONNECTED_PNKLT)
    for command in PAIR_COMMANDS:
        plain, optimized = run_plain_and_optimized([command, path])
        assert plain.returncode == optimized.returncode == 1
        assert plain.stdout == optimized.stdout
        assert b"catalog-incomplete" in plain.stdout


# -K is big and pNklt(X, 0) = {C0, C1} with C0·C1 = 0: the classification
# fails its connectedness check, so rcc gives no verdict either
DISCONNECTED_LATTICE = {
    "version": "pklt-lab/1",
    "base": {"kind": "lattice", "basis": ["H", "A", "B"],
             "gram": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
             "K": ["-3", "1", "1"],
             "curves": [{"id": "C0", "class": ["0", "-1", "0"], "genus": 0},
                        {"id": "C1", "class": ["-1", "0", "-2"], "genus": 0}]},
    "blowups": [{"id": "E1", "on": [{"curve": "C0"}], "point": "p1"}],
    "pair": {"level": 0},
}


def test_rcc_reads_the_classification(tmp_path):
    """rcc exits as classify does on a pair that fails classification,
    and prints the same payload, with or without python -O."""
    path = write_model(tmp_path, DISCONNECTED_LATTICE)
    runs = {command: run_plain_and_optimized([command, path])
            for command in ("classify", "rcc")}
    payloads = set()
    for procs in runs.values():
        for proc in procs:
            assert proc.returncode == 1
            payloads.add(proc.stdout)
    assert len(payloads) == 1
    payload = json.loads(payloads.pop())
    assert payload["error"] == "catalog-incomplete"
    assert payload["invariant"] == "pnklt-connected"


def test_model_round_trip(tmp_path):
    loaded = parse_model(RULED_BLOWUP)
    again = serialize_model(loaded)
    assert parse_model(again).model == loaded.model
    assert serialize_model(parse_model(again)) == again


def test_load_model_accepts_raw_json():
    loaded = load_model(json.dumps(RULED_BLOWUP))
    assert loaded.model.top == 1


def test_load_model_invalid_json_is_schema_error():
    with pytest.raises(SchemaError):
        load_model("{not json")


def test_divisor_unknown_curve_pointer():
    doc = dict(
        RULED_BLOWUP,
        divisors={"D": [{"curve": "Z9", "coeff": "1"}]},
    )
    loaded = parse_model(doc)
    with pytest.raises(ValidationError) as exc:
        loaded.divisor_at("D", 1)
    assert "/divisors/D" in str(exc.value)


def test_abstract_lattice_model_parses():
    doc = {
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
        "blowups": [{"id": "E1", "on": [{"curve": "C"}], "point": "p1"}],
        "pair": {"level": 1},
    }
    loaded = parse_model(doc)
    assert loaded.model.level(1).curve("C").genus == 1


def test_sample_model_file_checks_clean(capsys):
    code, out = run_cli(["check", "models/ruled_blowup.json"], capsys)
    assert code == 0
    assert json.loads(out)["valid"]


def test_corpus_diff_reports_mismatch():
    from pklt_lab import corpus

    expected = corpus.expected_report("ruled_blowup_g2e3")
    actual = json.loads(json.dumps(expected))
    actual["frakA"] = "0"
    diffs = corpus.diff_json(expected, actual)
    assert diffs and "/frakA" in diffs[0]


def test_examples_mismatch_exit_4_names_every_altered_path(monkeypatch, capsys):
    """A stored report that differs from the computed one: examples exits
    4 with "ok": false and one diff per altered path (an unexpected field,
    a missing field, a list of another length, another value)."""
    from pklt_lab import corpus

    stored = corpus.expected_report

    def altered(name):
        doc = stored(name)
        if name == "ruled_blowup_g2e3":
            del doc["frakA"]
            doc["flags"]["smooth"] = True
            doc["loci"]["pnklt"].append(doc["loci"]["pnklt"][0])
            doc["rcc"]["value"] = True
        return doc

    monkeypatch.setattr(corpus, "expected_report", altered)
    code, out = run_cli(["examples"], capsys)
    assert code == 4
    doc = json.loads(out)
    assert doc["ok"] is False
    bad = [e for e in doc["entries"] if not e["ok"]]
    assert [e["name"] for e in bad] == ["ruled_blowup_g2e3"]
    assert bad[0]["diffs"] == [
        "/flags/smooth: missing (expected True)",
        "/frakA: unexpected field '-inf'",
        "/loci/pnklt: length 1, expected 2",
        "/rcc/value: False, expected True",
    ]
