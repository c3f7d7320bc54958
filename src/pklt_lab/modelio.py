"""Strict JSON model schema ("pklt-lab/1") and its loader.

Rational coefficients travel as "p/q" strings (plain integers accepted
as shorthand); floats and decimals are rejected outright.  Unknown fields
are schema errors, reported with a JSON pointer to the offending spot.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import NamedTuple

from .lattice import rat
from .surface import (
    AbstractLattice,
    BlowUpCenter,
    CurveSpec,
    ModelError,
    ProjectivePlane,
    RDivisor,
    Ruled,
    SurfaceModel,
    blow_up,
    make_base,
)

SCHEMA_VERSION = "pklt-lab/1"
# the built-in divisor names, reserved in a file: each is this multiple of K
BUILTIN_DIVISORS = {"antiK": -1, "K": 1}
# each base kind's fields besides "kind", all of them required
BASE_FIELDS = {"P2": (), "ruled": ("genus", "e"),
               "lattice": ("basis", "gram", "K", "curves")}


class PointerError(ValueError):
    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class SchemaError(PointerError):
    """The document is not pklt-lab/1 JSON (exit 2)."""


class ValidationError(PointerError):
    """The document is pklt-lab/1 but describes no valid model (exit 3)."""


def _require_object(doc, pointer, allowed, required=()):
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    if getattr(doc, "repeated", None) is not None:
        raise SchemaError(pointer, f"repeated key {doc.repeated!r}")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{pointer}/{key}", "unknown field")
    for key in required:
        if key not in doc:
            raise SchemaError(pointer, f"missing required field {key!r}")


def _parse_array(value, pointer, parse, what="an array") -> tuple:
    """A JSON array as the tuple of its items, item i parsed at pointer/i."""
    if not isinstance(value, list):
        raise SchemaError(pointer, f"expected {what}")
    return tuple(parse(v, f"{pointer}/{i}") for i, v in enumerate(value))


def parse_rational(value, pointer) -> int | Fraction:
    """A JSON int or 'p/q' string as a canonical exact rational."""
    if isinstance(value, bool):
        raise SchemaError(pointer, "expected a rational, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise SchemaError(pointer, "floats are forbidden; use a 'p/q' string")
    if isinstance(value, str):
        try:
            return rat(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(pointer, f"not a rational: {value!r}")
    raise SchemaError(pointer, f"not a rational: {value!r}")


def _parse_int(value, pointer, minimum) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, "expected an integer")
    if value < minimum:
        raise SchemaError(pointer, f"must be >= {minimum}")
    return value


def _parse_str(value, pointer) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(pointer, "expected a non-empty string")
    return value


def _parse_vector(value, pointer) -> tuple[int | Fraction, ...]:
    return _parse_array(value, pointer, parse_rational, "an array of rationals")


def _parse_curve(doc, pointer) -> CurveSpec:
    _require_object(doc, pointer, {"id", "class", "genus"},
                    required=("id", "class", "genus"))
    return CurveSpec(
        _parse_str(doc["id"], f"{pointer}/id"),
        _parse_vector(doc["class"], f"{pointer}/class"),
        _parse_int(doc["genus"], f"{pointer}/genus", 0),
    )


def _parse_base(doc, pointer):
    _require_object(doc, pointer, {"kind"}.union(*BASE_FIELDS.values()),
                    required=("kind",))
    kind = _parse_str(doc["kind"], f"{pointer}/kind")
    if kind not in BASE_FIELDS:
        raise SchemaError(f"{pointer}/kind", f"unknown base kind {kind!r}")
    fields = ("kind", *BASE_FIELDS[kind])
    _require_object(doc, pointer, fields, required=fields)
    if kind == "P2":
        return ProjectivePlane()
    if kind == "ruled":
        return Ruled(
            _parse_int(doc["genus"], f"{pointer}/genus", 0),
            _parse_int(doc["e"], f"{pointer}/e", 1),
        )
    # an empty basis, like any other false value, is not a non-empty array
    basis = _parse_array(doc["basis"] or None, f"{pointer}/basis", _parse_str,
                         "a non-empty array")
    gram = _parse_array(doc["gram"], f"{pointer}/gram", _parse_vector,
                        "an array of rows")
    canonical = _parse_vector(doc["K"], f"{pointer}/K")
    curves = _parse_array(doc["curves"], f"{pointer}/curves", _parse_curve)
    return AbstractLattice(basis, gram, canonical, curves)


def _parse_blowup(doc, pointer) -> BlowUpCenter:
    _require_object(doc, pointer, {"id", "on", "near", "point"})
    on = []
    if "on" in doc:
        if not isinstance(doc["on"], list):
            raise SchemaError(f"{pointer}/on", "expected an array")
        for i, entry in enumerate(doc["on"]):
            eptr = f"{pointer}/on/{i}"
            _require_object(entry, eptr, {"curve", "mult"}, required=("curve",))
            mult = _parse_int(entry.get("mult", 1), f"{eptr}/mult", 1)
            on.append((_parse_str(entry["curve"], f"{eptr}/curve"), mult))
    near = _parse_str(doc["near"], f"{pointer}/near") if "near" in doc else None
    label = _parse_str(doc["point"], f"{pointer}/point") if "point" in doc else ""
    exc_id = _parse_str(doc["id"], f"{pointer}/id") if "id" in doc else None
    return BlowUpCenter(tuple(on), near, label, exc_id)


def _parse_term(doc, pointer) -> tuple[str, int | Fraction]:
    _require_object(doc, pointer, {"curve", "coeff"}, required=("curve", "coeff"))
    return (_parse_str(doc["curve"], f"{pointer}/curve"),
            parse_rational(doc["coeff"], f"{pointer}/coeff"))


class LoadedModel(NamedTuple):
    """A parsed model file: tower, named divisor terms, optional pair."""

    model: SurfaceModel
    divisors: dict[str, tuple[tuple[str, int | Fraction], ...]]
    pair: tuple[int, str | None] | None  # (level, delta name)

    @property
    def pair_level(self) -> int:
        """The pair's level, or the top of the tower when there is no pair."""
        return self.pair[0] if self.pair is not None else self.model.top

    def delta(self) -> RDivisor | None:
        """The pair's Δ at its level, or None when Δ = 0."""
        if self.pair is None or self.pair[1] is None:
            return None
        return self.divisor_at(self.pair[1], self.pair[0])

    def divisor_at(self, name: str, level: int) -> RDivisor:
        if name not in self.divisors:
            raise ValidationError("/divisors", f"unknown divisor {name!r}")
        lvl = self.model.level(level)
        for cid, _ in self.divisors[name]:
            if not lvl.has_curve(cid):
                raise ValidationError(
                    f"/divisors/{name}", f"unknown curve {cid!r} at level {level}"
                )
        return RDivisor.make(level, self.divisors[name])


def parse_model(doc) -> LoadedModel:
    _require_object(doc, "", {"version", "base", "blowups", "divisors", "pair"},
                    required=("version", "base"))
    if doc["version"] != SCHEMA_VERSION:
        raise SchemaError("/version", f"expected {SCHEMA_VERSION!r}")
    base = _parse_base(doc["base"], "/base")
    centers = (_parse_array(doc["blowups"], "/blowups", _parse_blowup)
               if "blowups" in doc else ())
    divisors: dict[str, tuple[tuple[str, int | Fraction], ...]] = {}
    if "divisors" in doc:
        # any name but a built-in one is allowed
        _require_object(doc["divisors"], "/divisors", doc["divisors"])
        for name, terms in doc["divisors"].items():
            if name in BUILTIN_DIVISORS:
                raise SchemaError(f"/divisors/{name}",
                                  f"{name!r} is a built-in divisor name")
            divisors[name] = _parse_array(terms, f"/divisors/{name}",
                                          _parse_term, "an array of terms")
    pair = None
    if "pair" in doc:
        _require_object(doc["pair"], "/pair", {"level", "delta"},
                        required=("level",))
        pair = (_parse_int(doc["pair"]["level"], "/pair/level", 0),
                _parse_str(doc["pair"]["delta"], "/pair/delta")
                if "delta" in doc["pair"] else None)
    # every schema error is raised above, before any validation error
    try:
        model = make_base(base)
    except ModelError as exc:
        at = "" if exc.curve is None else f"/curves/{exc.curve}"
        raise ValidationError(f"/base{at}", str(exc))
    try:
        model = blow_up(model, centers)
    except ModelError as exc:
        raise ValidationError(f"/blowups/{exc.center}", str(exc))
    if pair is not None:
        level, name = pair
        if level > model.top:
            raise ValidationError("/pair/level", f"level {level} out of range")
        if name is not None and name not in divisors:
            raise ValidationError("/pair/delta", f"unknown divisor {name!r}")
    loaded = LoadedModel(model, divisors, pair)
    loaded.delta()  # Δ must live at the pair level
    return loaded


class _Object(dict):
    """A JSON object read from text, with ``repeated``, the first key it
    gives twice (json keeps the last value); the schema refuses it."""

    repeated = None


def _read_object(pairs: list) -> _Object:
    doc = _Object(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        doc.repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
    return doc


def read_json(source: str):
    """The JSON document in a file, or raw JSON text that names no file."""
    text = source
    try:
        if os.path.isfile(source) or not source.lstrip().startswith("{"):
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text, object_pairs_hook=_read_object)
    except (ValueError, RecursionError) as exc:  # e.g. not UTF-8, too deep
        raise SchemaError("", f"invalid JSON: {exc}")


def load_model(source: str) -> LoadedModel:
    """Parse a model from a path, or raw JSON text that names no file."""
    return parse_model(read_json(source))

