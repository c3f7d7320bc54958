"""Command-line interface.

    pklt-lab <check|zariski|potential|pnklt|classify|fano|rcc|examples>
             [model.json] [--divisor NAME] [--level K] [--eps P/Q]
             [--format json|text]

Exit codes: 0 success, 1 computation failure (e.g. not pseudoeffective
against the catalog, or a theory invariant failing on an incomplete
catalog), 2 parse/schema error, 3 model validation error,
4 golden-corpus mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import corpus
from .modelio import LoadedModel, SchemaError, ValidationError, load_model
from .potential import (
    InvariantViolation,
    PairError,
    fano_type_test,
    make_pair,
)
from .report import (
    DISCLAIMER,
    REPORT_SCHEMA,
    decompose_named,
    fano_json,
    full_report,
    pair_report,
    rcc_json,
    zariski_json,
)
from .surface import validate
from .zariski import NotPseudoeffectiveError

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_SCHEMA = 2
EXIT_VALIDATION = 3
EXIT_CORPUS = 4


class CliFailure(Exception):
    def __init__(self, code: int, payload: dict):
        self.code = code
        self.payload = payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pklt-lab",
        description=(
            "Exact surface birational geometry: Zariski decompositions, "
            "potential discrepancies, pNklt loci and Fano-type tests on "
            "blow-up towers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    needs_model = ("check", "zariski", "potential", "pnklt", "classify",
                   "fano", "rcc")
    for name in needs_model + ("examples",):
        p = sub.add_parser(name)
        if name != "examples":
            p.add_argument("model", help="model JSON file (schema pklt-lab/1)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "zariski":
            p.add_argument("--divisor", required=True)
        if name in ("zariski", "fano"):
            p.add_argument("--level", type=int, default=None)
        if name in ("potential", "pnklt", "classify"):
            p.add_argument("--eps", default=None)
    return parser


def _load(path: str) -> LoadedModel:
    try:
        return load_model(path)
    except SchemaError as exc:
        raise CliFailure(EXIT_SCHEMA, {"error": "schema", "detail": str(exc)})
    except ValidationError as exc:
        raise CliFailure(EXIT_VALIDATION, {"error": "validation", "detail": str(exc)})
    except OSError as exc:
        raise CliFailure(EXIT_SCHEMA, {"error": "io", "detail": str(exc)})


def _pair_of(loaded: LoadedModel):
    level, delta_name = loaded.pair if loaded.pair else (loaded.model.top, None)
    delta = (
        loaded.divisor_at(delta_name, level) if delta_name is not None else None
    )
    try:
        return make_pair(loaded.model, level, delta)
    except NotPseudoeffectiveError as exc:
        raise CliFailure(EXIT_COMPUTE, {"error": "not-pseudoeffective",
                                        "detail": str(exc)})
    except PairError as exc:
        raise CliFailure(EXIT_VALIDATION, {"error": "pair", "detail": str(exc)})


def _parse_eps(value) -> Fraction | None:
    if value is None:
        return None
    try:
        eps = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise CliFailure(EXIT_SCHEMA, {"error": "bad-eps", "detail": value})
    if eps < 0:
        raise CliFailure(EXIT_SCHEMA, {"error": "bad-eps", "detail": value})
    return eps


def _check_level(model, level: int) -> None:
    if not 0 <= level <= model.top:
        raise CliFailure(EXIT_SCHEMA, {
            "error": "bad-level",
            "detail": f"level {level} is outside the tower (0..{model.top})",
        })


def _cmd_check(args) -> dict:
    loaded = _load(args.model)
    supports = ()
    if loaded.pair is not None:
        level, delta_name = loaded.pair
        if delta_name is not None:
            supports = loaded.divisor_at(delta_name, level).support
    rep = validate(loaded.model, supports)
    payload = {
        "schema": REPORT_SCHEMA,
        "command": "check",
        "valid": rep.valid,
        "violations": list(rep.violations),
        "log_resolution_ready": rep.log_resolution_ready,
    }
    if not rep.valid:
        raise CliFailure(EXIT_VALIDATION, payload)
    return payload


def _cmd_zariski(args) -> dict:
    loaded = _load(args.model)
    level = args.level if args.level is not None else loaded.model.top
    _check_level(loaded.model, level)
    try:
        zd, name = decompose_named(loaded.model, level, args.divisor, loaded)
    except KeyError:
        raise CliFailure(
            EXIT_VALIDATION,
            {"error": "unknown-divisor", "detail": args.divisor},
        )
    except ValidationError as exc:
        raise CliFailure(EXIT_VALIDATION, {"error": "validation",
                                           "detail": str(exc)})
    except NotPseudoeffectiveError as exc:
        raise CliFailure(EXIT_COMPUTE, {"error": "not-pseudoeffective",
                                        "detail": str(exc)})
    out = {"schema": REPORT_SCHEMA, "command": "zariski"}
    out.update(zariski_json(loaded.model, zd, name))
    return out


def _cmd_report_slice(args, report, keys) -> dict:
    loaded = _load(args.model)
    pair = _pair_of(loaded)
    eps = _parse_eps(getattr(args, "eps", None))
    rep = report(pair, eps)
    out = {"schema": REPORT_SCHEMA, "command": args.command}
    for key in keys:
        out[key] = rep[key]
    out["disclaimer"] = DISCLAIMER
    return out


def _cmd_fano(args) -> dict:
    loaded = _load(args.model)
    level = args.level if args.level is not None else (
        loaded.pair[0] if loaded.pair else loaded.model.top
    )
    _check_level(loaded.model, level)
    try:
        verdict = fano_json(loaded.model, fano_type_test(loaded.model, level))
    except NotPseudoeffectiveError as exc:
        raise CliFailure(EXIT_COMPUTE, {"error": "not-pseudoeffective",
                                        "detail": str(exc)})
    except PairError as exc:  # (X, N) fails the pair hypotheses
        raise CliFailure(EXIT_VALIDATION, {"error": "pair", "detail": str(exc)})
    return {
        "schema": REPORT_SCHEMA,
        "command": "fano",
        "level": level,
        "fano_type": verdict,
        "disclaimer": DISCLAIMER,
    }


def _cmd_rcc(args) -> dict:
    loaded = _load(args.model)
    pair = _pair_of(loaded)
    out = rcc_json(pair)
    if not out["applicable"]:
        raise CliFailure(
            EXIT_COMPUTE,
            {"error": "rcc-inapplicable", "detail": out["reason"]},
        )
    return {
        "schema": REPORT_SCHEMA,
        "command": "rcc",
        "rcc": out,
        "disclaimer": DISCLAIMER,
    }


def _cmd_examples(args) -> dict:
    results = corpus.run_examples()
    payload = {
        "schema": REPORT_SCHEMA,
        "command": "examples",
        "entries": results,
        "ok": all(r["ok"] for r in results),
    }
    if not payload["ok"]:
        raise CliFailure(EXIT_CORPUS, payload)
    return payload


def _render_text(doc, out, indent=0) -> None:
    pad = "  " * indent
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)) and value:
                out.write(f"{pad}{key}:\n")
                _render_text(value, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {_scalar(value)}\n")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                out.write(f"{pad}-\n")
                _render_text(value, out, indent + 1)
            else:
                out.write(f"{pad}- {_scalar(value)}\n")
    else:
        out.write(f"{pad}{_scalar(doc)}\n")


def _scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        _render_text(payload, sys.stdout)


_HANDLERS = {
    "check": _cmd_check,
    "zariski": _cmd_zariski,
    "potential": lambda a: _cmd_report_slice(
        a, pair_report, ("pair", "ledger", "zariski", "frakA", "loci", "flags")
    ),
    "pnklt": lambda a: _cmd_report_slice(a, pair_report, ("loci",)),
    "classify": lambda a: _cmd_report_slice(
        a, full_report, ("pair", "frakA", "loci", "flags", "fano_type", "rcc")
    ),
    "fano": _cmd_fano,
    "rcc": _cmd_rcc,
    "examples": _cmd_examples,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _HANDLERS[args.command](args)
    except InvariantViolation as exc:
        _emit({"error": "catalog-incomplete", "invariant": exc.invariant,
               "detail": exc.detail}, args.format)
        return EXIT_COMPUTE
    except CliFailure as failure:
        _emit(failure.payload, args.format)
        return failure.code
    _emit(payload, args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
