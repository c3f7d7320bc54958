import errno
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pklt_lab as pl
from conftest import random_pair, serialize_model
from pklt_lab import cli, corpus, report
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
    """Writes a model document, or a model text as it is, to a file."""
    path = tmp_path / name
    text = doc if isinstance(doc, str) else json.dumps(doc)
    path.write_text(text, encoding="utf-8")
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


# a model text that repeats a key, the object that repeats it and the key
REPEATED_KEYS = [
    ('{"version": "pklt-lab/1", "base": {"kind": "P2"}, '
     '"base": {"kind": "ruled", "genus": 2, "e": 3}, "pair": {"level": 0}}',
     "", "base"),
    ('{"version": "pklt-lab/1", "base": {"kind": "P2"}, "divisors": '
     '{"D": [{"curve": "L", "coeff": "1/2"}], "D": [{"curve": "L", "coeff": 1}]},'
     ' "pair": {"level": 0, "delta": "D"}}',
     "/divisors", "D"),
    ('{"version": "pklt-lab/1", "base": {"kind": "ruled", "genus": 2, "e": 3, '
     '"e": 1}}',
     "/base", "e"),
]


@pytest.mark.parametrize("text, pointer, key", REPEATED_KEYS)
def test_repeated_key_is_a_schema_error_plain_and_optimized(
        tmp_path, text, pointer, key):
    """JSON keeps the last of two values under one key; the strict schema
    refuses the file, from a path or as raw text, at the object that
    repeats the key."""
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    expected = {"error": "schema", "detail": f"{pointer}: repeated key {key!r}"}
    for source in (str(path), text):
        for proc in run_plain_and_optimized(["check", source]):
            assert proc.returncode == 2
            assert json.loads(proc.stdout) == expected


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
    # one pass runs every check on a curve before the next: curve 0's '~'
    # is named, not curve 1's class of the wrong length
    "first-faulty-curve-in-catalog-order": (
        lattice_curves_doc([["1"]], ["-3"], [("C~", ["1"], 0),
                                               ("D", ["1", "0"], 0)]),
        "/base/curves/0: curve id 'C~' ends in '~', which marks a strict "
        "transform"),
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
# strings outside the '[-]p[/q]' grammar, p and q of at most 4300 digits:
# each a schema error at its JSON pointer, exit 2 (the last would make
# Fraction build a 10⁹-digit int, were it read as a number)
NOT_RATIONAL = ["1e-5000", "0.5", "1e-2", "1_0/3", " 1/3 ", "+1", "1/-3",
                "\u0663", "1/" + "9" * 4301, "1e999999999"]
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


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("text", NOT_RATIONAL, ids=range(len(NOT_RATIONAL)))
def test_coefficient_outside_the_grammar_is_a_schema_error(
    tmp_path, capsys, text, command
):
    doc = dict(RULED_BLOWUP, divisors={"D": [{"curve": "C0", "coeff": text}]},
               pair={"level": 1, "delta": "D"})
    path = write_model(tmp_path, doc)
    code, out = run_cli([command, path, *MODEL_COMMANDS[command]], capsys)
    assert (code, json.loads(out)) == (2, {
        "error": "schema",
        "detail": f"/divisors/D/0/coeff: not a rational: {text!r}"})


@pytest.mark.parametrize("text", NOT_RATIONAL, ids=range(len(NOT_RATIONAL)))
def test_eps_outside_the_grammar_is_bad_eps(tmp_path, capsys, text):
    path = write_model(tmp_path, RULED_BLOWUP)
    code, out = run_cli(["pnklt", path, "--eps", text], capsys)
    assert (code, json.loads(out)) == (2, {"error": "bad-eps", "detail": text})


def test_exponent_strings_exit_2_plain_and_optimized(tmp_path):
    """'1e-5000' once parsed to 1/10⁵⁰⁰⁰, which check accepted and
    potential and pnklt could not print; now each is refused where it is
    read, with or without python -O."""
    doc = dict(RULED_BLOWUP, pair={"level": 1, "delta": "D"},
               divisors={"D": [{"curve": "C0", "coeff": "1e-5000"}]})
    path = write_model(tmp_path, doc)
    for args, error in ((["check", path], "schema"),
                        (["potential", path], "schema"),
                        (["pnklt", write_model(tmp_path, RULED_BLOWUP, "r.json"),
                          "--eps", "1e-5000"], "bad-eps")):
        for proc in run_plain_and_optimized(args):
            assert (proc.returncode, proc.stderr) == (2, b"")
            assert json.loads(proc.stdout)["error"] == error


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


Q1, Q2 = 10 ** 2500 + 1, 10 ** 2500 + 3


def huge_denominator(f_coeff):
    """F1 blown up at C0 ∩ f, with Δ = C0/q₁ + f_coeff·f at level 0."""
    return {
        "version": "pklt-lab/1",
        "base": {"kind": "ruled", "genus": 0, "e": 1},
        "blowups": [{"id": "E1", "on": [{"curve": "C0"}, {"curve": "f"}]}],
        "divisors": {"D": [{"curve": "C0", "coeff": f"1/{Q1}"},
                           {"curve": "f", "coeff": f_coeff}]},
        "pair": {"level": 0, "delta": "D"},
    }


# a(E1) = 1 − 1/q₁ − 1/q₂ has a 5001-digit denominator; the loci's
# ε₀ = 1 − 1/q₁ has 2501-digit parts
HUGE_DENOMINATOR = huge_denominator(f"1/{Q2}")
# f has pa = −1 − 1/q₂, so ε₀ = pa(E1) + 1 = 1 − 1/q₁ − 1/q₂ itself
HUGE_EPS0 = huge_denominator(f"{Q2 + 1}/{Q2}")
# A·B = −q² has 8600 digits, so make_base cannot name it
NINES = "9" * 4300
HUGE_NEGATIVE_PAIR = dict(NEGATIVE_PAIR, base=dict(
    NEGATIVE_PAIR["base"],
    curves=[{"id": "A", "class": [NINES], "genus": 0},
            {"id": "B", "class": ["-" + NINES], "genus": 0}]))


def test_a_number_past_the_digit_limit_exit_1_plain_and_optimized(tmp_path):
    """A number with a part of more than 4300 digits, the interpreter's
    int/str conversion limit, cannot be printed: in a report or in an error
    message it is a too-many-digits error, exit 1, not a traceback, with
    or without python -O.  A command fails only on a number it prints:
    pnklt and classify print no ledger, so a(E1) does not stop them."""
    huge = write_model(tmp_path, HUGE_DENOMINATOR)
    eps0 = write_model(tmp_path, HUGE_EPS0, "e.json")
    runs = [["potential", huge]]
    runs += [[command, eps0] for command in ("potential", "pnklt", "classify")]
    runs.append(["check", write_model(tmp_path, HUGE_NEGATIVE_PAIR, "n.json")])
    for args in runs:
        for proc in run_plain_and_optimized(args):
            assert (proc.returncode, proc.stderr) == (1, b""), args
            assert json.loads(proc.stdout) == {
                "error": "too-many-digits",
                "detail": "a number to print has more than 4300 digits",
            }
    for command in ("pnklt", "classify"):
        for proc in run_plain_and_optimized([command, huge]):
            assert (proc.returncode, proc.stderr) == (0, b""), command
            loci = json.loads(proc.stdout)["loci"]
            assert loci["eps0"] == f"{Q1 - 1}/{Q1}"


def test_repeated_point_label_exit_3_plain_and_optimized(tmp_path):
    path = write_model(tmp_path, DUPLICATE_LABEL)
    for proc in run_plain_and_optimized(["pnklt", path]):
        assert proc.returncode == 3
        assert json.loads(proc.stdout) == {
            "error": "validation",
            "detail": "/blowups/1: point label 'p2' already names an "
                      "earlier center",
        }


def with_divisor(terms):
    """RULED_BLOWUP with the named divisor D, given as its JSON terms."""
    return dict(RULED_BLOWUP, divisors={"D": terms})


# P² blown up at a point of a curve it does not have: a validation error
BAD_BLOWUP = blowups_doc(P2, [{"on": [{"curve": "nope"}]}])


def with_base(**fields):
    """RULED_BLOWUP on a lattice base: P² with its cubic, fields changed."""
    return dict(RULED_BLOWUP, base=dict(CUBIC_BASE, **fields), blowups=[],
                pair={"level": 0})


# each rejection of a model document by the loader, with its exit code and
# the detail that points at the offending spot
LOADER_REJECTIONS = {
    "base-not-an-object": (
        dict(RULED_BLOWUP, base=[]), 2, "/base: expected an object"),
    "required-field-missing": (
        dict(RULED_BLOWUP, base={"genus": 2, "e": 3}), 2,
        "/base: missing required field 'kind'"),
    "rational-is-a-boolean": (
        with_divisor([{"curve": "C0", "coeff": True}]), 2,
        "/divisors/D/0/coeff: expected a rational, got a boolean"),
    "rational-is-null": (
        with_divisor([{"curve": "C0", "coeff": None}]), 2,
        "/divisors/D/0/coeff: not a rational: None"),
    "integer-is-a-string": (
        dict(RULED_BLOWUP, base={"kind": "ruled", "genus": "2", "e": 3}), 2,
        "/base/genus: expected an integer"),
    "integer-below-its-minimum": (
        dict(RULED_BLOWUP, base={"kind": "ruled", "genus": 2, "e": 0}), 2,
        "/base/e: must be >= 1"),
    "string-is-empty": (
        dict(RULED_BLOWUP, base={"kind": ""}), 2,
        "/base/kind: expected a non-empty string"),
    "unknown-base-kind": (
        dict(RULED_BLOWUP, base={"kind": "cone"}), 2,
        "/base/kind: unknown base kind 'cone'"),
    "vector-not-an-array": (
        with_base(K="-3"), 2, "/base/K: expected an array of rationals"),
    "basis-not-an-array": (
        with_base(basis="H"), 2, "/base/basis: expected a non-empty array"),
    "gram-not-an-array": (
        with_base(gram="1"), 2, "/base/gram: expected an array of rows"),
    "curves-not-an-array": (
        with_base(curves={}), 2, "/base/curves: expected an array"),
    "on-not-an-array": (
        dict(RULED_BLOWUP, blowups=[{"on": {"curve": "C0"}}]), 2,
        "/blowups/0/on: expected an array"),
    "terms-not-an-array": (
        with_divisor({"curve": "C0", "coeff": "1"}), 2,
        "/divisors/D: expected an array of terms"),
    "blowups-not-an-array": (
        dict(RULED_BLOWUP, blowups={}), 2, "/blowups: expected an array"),
    "divisors-not-an-object": (
        dict(RULED_BLOWUP, divisors=[]), 2, "/divisors: expected an object"),
    "pair-level-above-the-top": (
        dict(RULED_BLOWUP, pair={"level": 2}), 3,
        "/pair/level: level 2 out of range"),
    "unknown-pair-delta": (
        dict(RULED_BLOWUP, pair={"level": 1, "delta": "D"}), 3,
        "/pair/delta: unknown divisor 'D'"),
    "builtin-name-K": (
        dict(RULED_BLOWUP, divisors={"K": [{"curve": "C0", "coeff": "1"}]}), 2,
        "/divisors/K: 'K' is a built-in divisor name"),
    "builtin-name-antiK": (
        dict(RULED_BLOWUP, divisors={"antiK": []}), 2,
        "/divisors/antiK: 'antiK' is a built-in divisor name"),
    # a schema error in divisors or pair wins over a bad blow-up
    "terms-not-an-array-after-a-bad-blowup": (
        dict(BAD_BLOWUP, divisors={"D": 5}), 2,
        "/divisors/D: expected an array of terms"),
    "pair-level-not-an-integer-after-a-bad-blowup": (
        dict(BAD_BLOWUP, pair={"level": "x"}), 2,
        "/pair/level: expected an integer"),
    "divisor-repeated-after-a-bad-blowup": (
        json.dumps(BAD_BLOWUP)[:-1]
        + ', "divisors": {"D": [], "D": []}}', 2,
        "/divisors: repeated key 'D'"),
    "pair-delta-empty-above-the-top": (
        dict(RULED_BLOWUP, pair={"level": 2, "delta": ""}), 2,
        "/pair/delta: expected a non-empty string"),
    # a base object's errors, in order: a field no kind has, a missing or
    # empty kind, an unknown kind, then the kind's own fields
    "field-of-no-base-kind-before-a-missing-kind": (
        dict(RULED_BLOWUP, base={"foo": 1}), 2, "/base/foo: unknown field"),
    "field-of-another-base-kind": (
        dict(RULED_BLOWUP, base={"kind": "P2", "genus": 0}), 2,
        "/base/genus: unknown field"),
    "lattice-field-on-a-ruled-base": (
        dict(RULED_BLOWUP, base={"kind": "ruled", "genus": 2, "e": 3,
                                 "basis": []}), 2,
        "/base/basis: unknown field"),
    "unknown-base-kind-with-a-known-field": (
        dict(RULED_BLOWUP, base={"kind": "cone", "genus": 1}), 2,
        "/base/kind: unknown base kind 'cone'"),
    "ruled-base-field-missing": (
        dict(RULED_BLOWUP, base={"kind": "ruled", "genus": 2}), 2,
        "/base: missing required field 'e'"),
    "lattice-base-field-missing": (
        dict(RULED_BLOWUP, base={k: v for k, v in CUBIC_BASE.items()
                                 if k != "curves"}), 2,
        "/base: missing required field 'curves'"),
    "catalog-curve-field-missing": (
        with_base(curves=[{"id": "C", "class": ["3"]}]), 2,
        "/base/curves/0: missing required field 'genus'"),
    "unknown-field-at-the-root": (
        dict(RULED_BLOWUP, foo=1), 2, "/foo: unknown field"),
    "unknown-field-in-a-blowup": (
        dict(RULED_BLOWUP, blowups=[{"foo": 1}]), 2,
        "/blowups/0/foo: unknown field"),
    "unknown-field-in-an-on-entry": (
        dict(RULED_BLOWUP, blowups=[{"on": [{"curve": "C0", "foo": 1}]}]), 2,
        "/blowups/0/on/0/foo: unknown field"),
    "unknown-field-in-a-term": (
        with_divisor([{"curve": "C0", "coeff": "1", "foo": 1}]), 2,
        "/divisors/D/0/foo: unknown field"),
    "unknown-field-in-a-catalog-curve": (
        with_base(curves=[{"id": "C", "class": ["3"], "genus": 1,
                           "foo": 1}]), 2,
        "/base/curves/0/foo: unknown field"),
    "unknown-field-in-the-pair": (
        dict(RULED_BLOWUP, pair={"level": 1, "foo": 1}), 2,
        "/pair/foo: unknown field"),
}


@pytest.mark.parametrize("case", sorted(LOADER_REJECTIONS))
def test_each_loader_rejection_points_at_its_spot(tmp_path, capsys, case):
    doc, code, detail = LOADER_REJECTIONS[case]
    got, out = run_cli(["check", write_model(tmp_path, doc)], capsys)
    error = {2: "schema", 3: "validation"}[code]
    assert (got, json.loads(out)) == (code, {"error": error, "detail": detail})


def test_an_integer_coefficient_is_shorthand_for_its_string(tmp_path, capsys):
    """The README's shorthand: a JSON integer coefficient reads as the
    string of its digits, so the report is the same."""
    outs = []
    for coeff in (1, "1"):
        doc = {"version": "pklt-lab/1", "base": {"kind": "P2"},
               "divisors": {"D": [{"curve": "L", "coeff": coeff}]},
               "pair": {"level": 0, "delta": "D"}}
        outs.append(run_cli(["potential", write_model(tmp_path, doc)], capsys))
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert json.loads(outs[0][1])["pair"]["delta"] == {"L": "1"}


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


# -(K+Δ) = −L is not pseudoeffective
P2_FOUR_L = {
    "version": "pklt-lab/1",
    "base": {"kind": "P2"},
    "divisors": {"D": [{"curve": "L", "coeff": "4"}]},
    "pair": {"level": 0, "delta": "D"},
}


@pytest.mark.parametrize("command", ["potential", "pnklt", "classify"])
def test_bad_eps_is_read_before_the_pair(tmp_path, capsys, command):
    """--eps is read after the model and before the pair's analysis, so a
    malformed value is bad-eps even where the pair fails."""
    path = write_model(tmp_path, P2_FOUR_L)
    code, out = run_cli([command, path], capsys)
    assert (code, json.loads(out)["error"]) == (1, "not-pseudoeffective")
    code, out = run_cli([command, path, "--eps", "-1"], capsys)
    assert (code, json.loads(out)) == (2, {"error": "bad-eps", "detail": "-1"})


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


def run_plain_and_optimized(args, stdout=subprocess.PIPE, closing="",
                            src=Path(pl.__file__).resolve().parents[1]):
    """The CLI as a fresh process, with and without python -O, importing
    the package from ``src``; a ``closing`` redirection such as ``>&-``
    is applied to it by sh."""
    env = dict(os.environ, PYTHONPATH=str(src))
    shell = ["sh", "-c", f'"$@" {closing}', "sh"] if closing else []
    return [
        subprocess.run(
            [*shell, sys.executable, *flags, "-m", "pklt_lab.cli", *args],
            stdout=stdout, stderr=subprocess.PIPE,
            cwd=Path(__file__).resolve().parents[1], env=env,
        )
        for flags in ([], ["-O"])
    ]


def assert_io_error(procs, code):
    """Exit 2 with one JSON line on stderr naming the write's errno."""
    for proc in procs:
        assert proc.returncode == 2
        assert proc.stderr.count(b"\n") == 1
        assert json.loads(proc.stderr) == {
            "error": "io",
            "detail": f"[Errno {code}] {os.strerror(code)}",
        }


# a payload larger than stdout's buffer, and one that fits in it
UNWRITTEN = (["examples"], ["check", "models/ruled_blowup.json"])


@pytest.fixture(params=["buffered", "unbuffered"])
def stdout_buffering(request, monkeypatch):
    if request.param == "buffered":
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")


@pytest.mark.parametrize("args", UNWRITTEN)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_pipe_is_an_io_error_plain_and_optimized(
    args, fmt, stdout_buffering
):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        procs = run_plain_and_optimized([*args, "--format", fmt],
                                        stdout=write_end)
    finally:
        os.close(write_end)
    assert_io_error(procs, errno.EPIPE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args", UNWRITTEN)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_full_stdout_device_is_an_io_error_plain_and_optimized(
    args, fmt, stdout_buffering
):
    with open("/dev/full", "wb") as full:
        procs = run_plain_and_optimized([*args, "--format", fmt], stdout=full)
    assert_io_error(procs, errno.ENOSPC)


@pytest.mark.skipif(shutil.which("sh") is None, reason="no sh")
@pytest.mark.parametrize("args", UNWRITTEN)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stdout_closed_at_start_up_is_an_io_error_plain_and_optimized(
    args, fmt
):
    """With fd 1 closed the interpreter has no sys.stdout: exit 2 and the
    one io line on stderr, not a traceback."""
    procs = run_plain_and_optimized([*args, "--format", fmt], closing=">&-")
    assert_io_error(procs, errno.EBADF)
    assert all(proc.stdout == b"" for proc in procs)


@pytest.mark.skipif(shutil.which("sh") is None, reason="no sh")
@pytest.mark.parametrize("args", UNWRITTEN)
def test_stdout_and_stderr_closed_at_start_up_exit_2_plain_and_optimized(
    args
):
    """With fds 1 and 2 closed nothing can be printed: exit 2 all the
    same, where a traceback would end in exit 1."""
    procs = run_plain_and_optimized(args, closing=">&- 2>&-")
    assert [(p.returncode, p.stdout, p.stderr) for p in procs] == [
        (2, b"", b"")] * 2


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


@pytest.mark.parametrize("content", [
    json.dumps(RULED_BLOWUP).encode().replace(b'"p1"', b'"p\xff"'),
    ('{"version": ' + "[" * 100000 + "]" * 100000 + "}").encode(),
], ids=["not-utf-8", "nested-100000-deep"])
def test_unreadable_json_is_a_schema_error_plain_and_optimized(
    tmp_path, content
):
    """A model file that is not UTF-8, or whose arrays nest deeper than the
    decoder recurses, exits 2 with a schema error at the document root,
    not a traceback, with or without python -O."""
    path = tmp_path / "model.json"
    path.write_bytes(content)
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


def test_a_path_that_begins_with_a_brace_is_read_as_a_file(
        tmp_path, capsys, monkeypatch):
    """A file named like '{ruled}.json' is a path, not JSON text."""
    shutil.copy("models/ruled_blowup.json", tmp_path / "{ruled}.json")
    monkeypatch.chdir(tmp_path)
    assert load_model("{ruled}.json").model.top == 1
    code, out = run_cli(["check", "{ruled}.json"], capsys)
    assert (code, json.loads(out)["valid"]) == (0, True)


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


@pytest.mark.parametrize("name, text, error", [
    ("cubic12.expected.json", '{"schema": ', "schema"),
    ("cubic12.model.json", '{"version": ', "schema"),
    ("cubic12.model.json", None, "io"),
], ids=["broken-report", "broken-model", "missing-model"])
def test_examples_on_a_bad_corpus_file_exits_2_plain_and_optimized(
    tmp_path, name, text, error
):
    """A copy of the package whose corpus holds a stored report or a model
    file that is not JSON, or lacks a model file: examples exits 2 with
    one JSON error object and no traceback, with or without python -O."""
    shutil.copytree(Path(pl.__file__).parent, tmp_path / "pklt_lab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bad = tmp_path / "pklt_lab" / "corpus" / name
    if text is None:
        bad.unlink()
    else:
        bad.write_text(text, encoding="utf-8")
    for proc in run_plain_and_optimized(["examples"], src=tmp_path):
        assert (proc.returncode, proc.stderr) == (2, b"")
        payload = json.loads(proc.stdout)
        assert payload["error"] == error
        assert (name in payload["detail"] if text is None
                else payload["detail"].startswith(": invalid JSON: "))


def test_corpus_holds_one_model_and_one_report_per_name():
    """The corpus directory holds each entry's model file and stored report
    and nothing else, and the sample model of the README is the
    ruled_blowup_g2e3 entry."""
    assert len(set(corpus.NAMES)) == len(corpus.NAMES) == 9
    files = [corpus.entry_file(name, kind) for name in corpus.NAMES
             for kind in ("model", "expected")]
    directory = Path(pl.__file__).parent / "corpus"
    assert sorted(files) == sorted(str(p) for p in directory.iterdir())
    sample = Path("models/ruled_blowup.json").read_text(encoding="utf-8")
    entry = Path(corpus.entry_file("ruled_blowup_g2e3", "model"))
    assert json.loads(sample) == json.loads(entry.read_text(encoding="utf-8"))


# the report sections each pair command prints, in order
PRINTED_SECTIONS = {
    "potential": ("pair", "ledger", "zariski", "frakA", "loci", "flags"),
    "pnklt": ("loci",),
    "classify": ("pair", "frakA", "loci", "flags", "fano_type", "rcc"),
    "rcc": ("rcc",),
}


@pytest.mark.parametrize("command", sorted(PRINTED_SECTIONS))
def test_a_pair_command_builds_only_the_sections_it_prints(
    tmp_path, capsys, monkeypatch, command
):
    printed = PRINTED_SECTIONS[command]
    for name in set(report.SECTIONS) - set(printed):
        monkeypatch.setitem(
            report.SECTIONS, name,
            lambda pr, eps, name=name: pytest.fail(f"{command} built {name}"),
        )
    code, out = run_cli([command, write_model(tmp_path, RULED_BLOWUP)], capsys)
    assert code == 0
    assert list(json.loads(out)) == ["schema", "command", *printed,
                                     "disclaimer"]


def test_pair_sections_are_the_full_report_sections_fuzzed():
    """For each pair command's sections, pair_sections(pair, names, eps) is
    those sections of full_report(pair, eps), in the command's order, on
    seeded random pairs and the golden corpus; a pair that fails its
    classification fails every command with the same invariant."""
    rng = random.Random(1919)
    pairs = [random_pair(rng) for _ in range(150)]
    for name in corpus.NAMES:
        loaded = load_model(corpus.entry_file(name, "model"))
        pairs.append(
            pl.make_pair(loaded.model, loaded.pair_level, loaded.delta()))
    assert list(report.SECTIONS) == ["pair", "ledger", "zariski", "frakA",
                                     "loci", "flags", "fano_type", "rcc"]
    compared = failed = 0
    for pair in pairs:
        eps = rng.choice([None, 0, Fraction(1, 3), Fraction(1, 2), 2])
        try:
            full = report.full_report(pair, eps)
        except pl.InvariantViolation as exc:
            for names in PRINTED_SECTIONS.values():
                with pytest.raises(pl.InvariantViolation) as again:
                    report.pair_sections(pair, names, eps)
                assert again.value.invariant == exc.invariant
            failed += 1
            continue
        assert list(full) == ["schema", *report.SECTIONS, "disclaimer"]
        for names in PRINTED_SECTIONS.values():
            sections = report.pair_sections(pair, names, eps)
            assert list(sections.items()) == [(k, full[k]) for k in names]
        compared += 1
    assert compared > 100


# the options each subcommand takes, with their values once parsed
TAKES = {
    "check": {}, "zariski": {"divisor": "X", "level": 0},
    "potential": {"eps": "1/2"}, "pnklt": {"eps": "1/2"},
    "classify": {"eps": "1/2"}, "fano": {"level": 0}, "rcc": {},
    "examples": {},
}
PROBES = {"divisor": ["--divisor", "X"], "level": ["--level", "0"],
          "eps": ["--eps", "1/2"]}
# each subcommand's report fields on a successful run, in print order
REPORT_KEYS = {
    "check": ["valid", "violations", "log_resolution_ready"],
    "zariski": ["divisor", "level", "pseudoeffective", "P", "N", "support",
                "big", "nnef", "disclaimer"],
    "potential": ["pair", "ledger", "zariski", "frakA", "loci", "flags",
                  "disclaimer"],
    "pnklt": ["loci", "disclaimer"],
    "classify": ["pair", "frakA", "loci", "flags", "fano_type", "rcc",
                 "disclaimer"],
    "fano": ["level", "fano_type", "disclaimer"],
    "rcc": ["rcc", "disclaimer"],
    "examples": ["entries", "ok"],
}


@pytest.mark.parametrize("command", sorted(TAKES))
def test_each_subcommand_keeps_its_arguments_and_report_keys(command, capsys):
    """The CLI contract: which of --divisor, --level and --eps argparse
    takes for each subcommand (any other is exit 2, and zariski needs
    --divisor), that examples alone takes no model, the defaults, and the
    top-level keys of a successful run on the sample model."""
    parser = cli._build_parser()
    model = [] if command == "examples" else ["models/ruled_blowup.json"]
    for probes in range(1 << len(PROBES)):
        chosen = [name for i, name in enumerate(PROBES) if probes >> i & 1]
        argv = [command, *model, *(a for n in chosen for a in PROBES[n])]
        if set(chosen) <= set(TAKES[command]) and (
                command != "zariski" or "divisor" in chosen):
            parsed = vars(parser.parse_args(argv))
            assert parsed == {
                "command": command, "format": "json",
                **({"model": model[0]} if model else {}),
                **{n: TAKES[command][n] if n in chosen else None
                   for n in TAKES[command]},
            }
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, argv
    needed = ["--divisor", "X"] if command == "zariski" else []
    rejected = [[command, *model, *needed, "--format", "xml"],
                [command, *needed] if model else [command, "model.json"]]
    if "level" in TAKES[command]:
        rejected.append([command, *model, *needed, "--level", "x"])
    for argv in rejected:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    needed = ["--divisor", "antiK"] if command == "zariski" else []
    code, out = run_cli([command, *model, *needed], capsys)
    assert code == 0
    assert list(json.loads(out)) == ["schema", "command",
                                     *REPORT_KEYS[command]]
