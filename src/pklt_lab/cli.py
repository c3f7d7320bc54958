"""Command-line interface.

    pklt-lab <check|zariski|potential|pnklt|classify|fano|rcc|examples>
             [model.json] [--divisor NAME] [--level K] [--eps P/Q]
             [--format json|text]

Each subcommand is one row of ``COMMANDS``; the model is loaded once,
before the row's handler runs, which returns its report's own fields.

Exit codes: 0 success, 1 computation failure (e.g. not pseudoeffective
against the catalog, a theory invariant failing on an incomplete
catalog, or a number too long to print), 2 parse/schema error or a
model file or stdout that cannot be used, 3 model validation error,
4 golden-corpus mismatch.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from fractions import Fraction

from . import corpus
from .lattice import DigitLimitError, rat
from .modelio import BUILTIN_DIVISORS, SchemaError, ValidationError, load_model
from .potential import InvariantViolation, PairError, fano_type_test, make_pair
from .report import (DISCLAIMER, REPORT_SCHEMA, fano_json, pair_sections,
                     zariski_json)
from .surface import integral_class, validate
from .zariski import NotPseudoeffectiveError, zariski_decompose

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_SCHEMA = 2
EXIT_VALIDATION = 3
EXIT_CORPUS = 4


# library exception -> (exit code, the "error" field of the JSON it prints)
FAILURES = {
    SchemaError: (EXIT_SCHEMA, "schema"),
    OSError: (EXIT_SCHEMA, "io"),
    ValidationError: (EXIT_VALIDATION, "validation"),
    PairError: (EXIT_VALIDATION, "pair"),
    NotPseudoeffectiveError: (EXIT_COMPUTE, "not-pseudoeffective"),
    DigitLimitError: (EXIT_COMPUTE, "too-many-digits"),
}


class CliFailure(Exception):
    """A failure the CLI itself detects, with its exit code and payload."""

    def __init__(self, code: int, payload: dict):
        self.code = code
        self.payload = payload


def _parse_eps(value) -> int | Fraction | None:
    if value is None:
        return None
    try:
        eps = rat(value)
    except (ValueError, ZeroDivisionError):
        raise CliFailure(EXIT_SCHEMA, {"error": "bad-eps", "detail": value})
    if eps < 0:
        raise CliFailure(EXIT_SCHEMA, {"error": "bad-eps", "detail": value})
    return eps


def _level(args, model, default: int) -> int:
    """--level, or the command's default, checked against the tower."""
    level = default if args.level is None else args.level
    if not 0 <= level <= model.top:
        raise CliFailure(EXIT_SCHEMA, {
            "error": "bad-level",
            "detail": f"level {level} is outside the tower (0..{model.top})",
        })
    return level


def _check(args, loaded) -> dict:
    delta = loaded.delta()
    ready = validate(loaded.model, delta.support if delta is not None else ())
    # LoadedModel.delta() has checked Δ's curves, so the model is valid here
    return {"valid": True, "violations": [], "log_resolution_ready": ready}


def _zariski(args, loaded) -> dict:
    model, name = loaded.model, args.divisor
    level = _level(args, model, model.top)
    if name in loaded.divisors:
        k, terms = 0, loaded.divisor_at(name, level).terms
    elif name in BUILTIN_DIVISORS:
        k, terms = BUILTIN_DIVISORS[name], ()
    else:
        raise CliFailure(EXIT_VALIDATION,
                         {"error": "unknown-divisor", "detail": name})
    D, d = integral_class(model, level, k, terms)
    return zariski_json(model, zariski_decompose(model, level, D, d), name)


def _pair(*names):
    """The handler of a command printing these sections of the pair."""
    def handler(args, loaded) -> dict:
        eps = _parse_eps(getattr(args, "eps", None))
        pair = make_pair(loaded.model, loaded.pair_level, loaded.delta())
        return {**pair_sections(pair, names, eps), "disclaimer": DISCLAIMER}
    return handler


def _fano(args, loaded) -> dict:
    level = _level(args, loaded.model, loaded.pair_level)
    verdict = fano_json(loaded.model, fano_type_test(loaded.model, level))
    return {"level": level, "fano_type": verdict, "disclaimer": DISCLAIMER}


def _rcc(args, loaded) -> dict:
    out = _pair("rcc")(args, loaded)
    if not out["rcc"]["applicable"]:
        raise CliFailure(EXIT_COMPUTE, {"error": "rcc-inapplicable",
                                        "detail": out["rcc"]["reason"]})
    return out


def _examples(args, loaded) -> dict:
    results = corpus.run_examples()
    body = {"entries": results, "ok": all(r["ok"] for r in results)}
    if not body["ok"]:
        raise CliFailure(EXIT_CORPUS, {"schema": REPORT_SCHEMA,
                                       "command": args.command, **body})
    return body


# each option a command may take, as argparse declares it
OPTIONS = {
    "--divisor": {"required": True},
    "--level": {"type": int, "default": None},
    "--eps": {"default": None},
}

# subcommand -> (takes a model, its options, its handler), in help order;
# a handler gets the parsed arguments and the loaded model, or None
COMMANDS = {
    "check": (True, (), _check),
    "zariski": (True, ("--divisor", "--level"), _zariski),
    "potential": (True, ("--eps",), _pair(
        "pair", "ledger", "zariski", "frakA", "loci", "flags")),
    "pnklt": (True, ("--eps",), _pair("loci")),
    "classify": (True, ("--eps",), _pair(
        "pair", "frakA", "loci", "flags", "fano_type", "rcc")),
    "fano": (True, ("--level",), _fano),
    "rcc": (True, (), _rcc),
    "examples": (False, (), _examples),
}


@functools.cache  # built once per process: most of an in-process call
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
    for name, (takes_model, options, _) in COMMANDS.items():
        p = sub.add_parser(name)
        if takes_model:
            p.add_argument("model", help="model JSON file (schema pklt-lab/1)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        for option in options:
            p.add_argument(option, **OPTIONS[option])
    return parser


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


def _scalar(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        _render_text(payload, sys.stdout)
    sys.stdout.flush()


def _outcome(args) -> tuple[int, dict]:
    """The command's exit code and the payload to print."""
    takes_model, _, handler = COMMANDS[args.command]
    try:
        loaded = load_model(args.model) if takes_model else None
        body = handler(args, loaded)
    except InvariantViolation as exc:
        return EXIT_COMPUTE, {"error": "catalog-incomplete",
                              "invariant": exc.invariant, "detail": exc.detail}
    except tuple(FAILURES) as exc:
        code, error = next(
            v for t, v in FAILURES.items() if isinstance(exc, t)
        )
        return code, {"error": error, "detail": str(exc)}
    except CliFailure as failure:
        return failure.code, failure.payload
    return EXIT_OK, {"schema": REPORT_SCHEMA, "command": args.command, **body}


def _io_failure(exc: OSError) -> int:
    """The exit code of a stdout that cannot be used; its one JSON line
    goes to stderr, unless stderr is closed too."""
    code, error = FAILURES[OSError]
    if sys.stderr is not None:
        sys.stderr.write(json.dumps({"error": error, "detail": str(exc)})
                         + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if sys.stdout is None:  # fd 1 was closed at start-up
        return _io_failure(OSError(errno.EBADF, os.strerror(errno.EBADF)))
    code, payload = _outcome(args)
    try:
        _emit(payload, args.format)
    except OSError as exc:  # a closed pipe, a full disk
        # fd 1 goes to devnull, so the interpreter's flush at exit of what
        # is still buffered cannot fail again and print a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _io_failure(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
