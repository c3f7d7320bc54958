"""Strict JSON model schema ("pklt-lab/1") and its loader.

Rational coefficients travel as "p/q" strings (plain integers accepted
as shorthand); floats are rejected outright.  Unknown fields are schema
errors, reported with a JSON pointer to the offending spot.
"""

from __future__ import annotations

import json
from fractions import Fraction

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


class SchemaError(ValueError):
    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class ValidationError(ValueError):
    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _require_object(doc, pointer, allowed, required=()):
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{pointer}/{key}", "unknown field")
    for key in required:
        if key not in doc:
            raise SchemaError(pointer, f"missing required field {key!r}")


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


def _parse_int(value, pointer, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, "expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(pointer, f"must be >= {minimum}")
    return value


def _parse_str(value, pointer) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(pointer, "expected a non-empty string")
    return value


def _parse_vector(value, pointer) -> tuple[int | Fraction, ...]:
    if not isinstance(value, list):
        raise SchemaError(pointer, "expected an array of rationals")
    return tuple(parse_rational(v, f"{pointer}/{i}") for i, v in enumerate(value))


def _parse_base(doc, pointer):
    _require_object(
        doc, pointer,
        {"kind", "genus", "e", "basis", "gram", "K", "curves"},
        required=("kind",),
    )
    kind = _parse_str(doc["kind"], f"{pointer}/kind")
    if kind == "P2":
        _require_object(doc, pointer, {"kind"})
        return ProjectivePlane()
    if kind == "ruled":
        _require_object(doc, pointer, {"kind", "genus", "e"},
                        required=("kind", "genus", "e"))
        return Ruled(
            _parse_int(doc["genus"], f"{pointer}/genus", 0),
            _parse_int(doc["e"], f"{pointer}/e", 1),
        )
    if kind == "lattice":
        _require_object(doc, pointer,
                        {"kind", "basis", "gram", "K", "curves"},
                        required=("kind", "basis", "gram", "K", "curves"))
        basis = doc["basis"]
        if not isinstance(basis, list) or not basis:
            raise SchemaError(f"{pointer}/basis", "expected a non-empty array")
        basis = tuple(
            _parse_str(b, f"{pointer}/basis/{i}") for i, b in enumerate(basis)
        )
        gram_doc = doc["gram"]
        if not isinstance(gram_doc, list):
            raise SchemaError(f"{pointer}/gram", "expected an array of rows")
        gram = tuple(
            _parse_vector(row, f"{pointer}/gram/{i}")
            for i, row in enumerate(gram_doc)
        )
        canonical = _parse_vector(doc["K"], f"{pointer}/K")
        curves_doc = doc["curves"]
        if not isinstance(curves_doc, list):
            raise SchemaError(f"{pointer}/curves", "expected an array")
        curves = []
        for i, cdoc in enumerate(curves_doc):
            cptr = f"{pointer}/curves/{i}"
            _require_object(cdoc, cptr, {"id", "class", "genus"},
                            required=("id", "class", "genus"))
            curves.append(CurveSpec(
                _parse_str(cdoc["id"], f"{cptr}/id"),
                _parse_vector(cdoc["class"], f"{cptr}/class"),
                _parse_int(cdoc["genus"], f"{cptr}/genus", 0),
            ))
        return AbstractLattice(basis, gram, canonical, tuple(curves))
    raise SchemaError(f"{pointer}/kind", f"unknown base kind {kind!r}")


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


def _parse_divisor_terms(doc, pointer) -> tuple[tuple[str, int | Fraction], ...]:
    if not isinstance(doc, list):
        raise SchemaError(pointer, "expected an array of terms")
    terms = []
    for i, entry in enumerate(doc):
        eptr = f"{pointer}/{i}"
        _require_object(entry, eptr, {"curve", "coeff"}, required=("curve", "coeff"))
        terms.append((
            _parse_str(entry["curve"], f"{eptr}/curve"),
            parse_rational(entry["coeff"], f"{eptr}/coeff"),
        ))
    return tuple(terms)


class LoadedModel:
    """A parsed model file: tower, named divisor terms, optional pair."""

    def __init__(self, model, divisors, pair):
        self.model: SurfaceModel = model
        self.divisors: dict[str, tuple[tuple[str, int | Fraction], ...]] = divisors
        self.pair: tuple[int, str] | None = pair  # (level, delta name)

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
    centers = []
    if "blowups" in doc:
        if not isinstance(doc["blowups"], list):
            raise SchemaError("/blowups", "expected an array")
        centers = [
            _parse_blowup(b, f"/blowups/{i}") for i, b in enumerate(doc["blowups"])
        ]
    try:
        model = make_base(base)
    except ModelError as exc:
        at = "" if exc.curve is None else f"/curves/{exc.curve}"
        raise ValidationError(f"/base{at}", str(exc))
    try:
        model = blow_up(model, centers)
    except ModelError as exc:
        raise ValidationError(f"/blowups/{exc.center}", str(exc))

    divisors: dict[str, tuple[tuple[str, int | Fraction], ...]] = {}
    if "divisors" in doc:
        if not isinstance(doc["divisors"], dict):
            raise SchemaError("/divisors", "expected an object")
        for name, terms in doc["divisors"].items():
            divisors[name] = _parse_divisor_terms(terms, f"/divisors/{name}")

    pair = None
    if "pair" in doc:
        _require_object(doc["pair"], "/pair", {"level", "delta"},
                        required=("level",))
        level = _parse_int(doc["pair"]["level"], "/pair/level", 0)
        if level > model.top:
            raise ValidationError("/pair/level", f"level {level} out of range")
        name = None
        if "delta" in doc["pair"]:
            name = _parse_str(doc["pair"]["delta"], "/pair/delta")
            if name not in divisors:
                raise ValidationError("/pair/delta", f"unknown divisor {name!r}")
        pair = (level, name)
    loaded = LoadedModel(model, divisors, pair)
    loaded.delta()  # Δ must live at the pair level
    return loaded


def load_model(source: str) -> LoadedModel:
    """Parse a model from a path or raw JSON text."""
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or an int past the digit limit
        raise SchemaError("", f"invalid JSON: {exc}")
    return parse_model(doc)

