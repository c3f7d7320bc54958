"""Deterministic JSON report assembly shared by the CLI and the corpus."""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, numeral, numeral_over
from .potential import (
    FanoVerdict,
    PairSpec,
    PotentialReport,
    classify_pair,
    eps_spnklt,
    fano_type_test,
    fano_verdict,
)
from .surface import RDivisor, SurfaceModel, display_name
from .zariski import ZariskiDecomposition
from . import rcc

REPORT_SCHEMA = "pklt-lab/report/1"

DISCLAIMER = (
    "nef/big/pseudoeffective verdicts are certified against the model's "
    "declared curve catalog only; curves outside the catalog are not "
    "considered"
)


def _display(model: SurfaceModel, level: int, cid: str) -> str:
    """Curve.display at ``level``, read off the curve table."""
    return display_name(cid, model.curves[cid].born, level)


def divisor_json(model: SurfaceModel, d: RDivisor) -> dict:
    return {
        _display(model, d.level, cid): numeral(v) for cid, v in d.terms
    }


def class_json(model: SurfaceModel, level: int, cls: DivisorClass) -> dict:
    labels = model.level(level).basis_labels
    return {lab: numeral(cls.terms.get(i, 0)) for i, lab in enumerate(labels)}


def component_json(model: SurfaceModel, level: int, comp) -> dict:
    if comp.kind == "curve":
        return {
            "kind": "curve",
            "id": _display(model, level, comp.ref),
            "genus": comp.genus,
        }
    return {
        "kind": "point",
        "label": comp.ref,
        "on": sorted(_display(model, level, c) for c in comp.on_curves),
    }


def zariski_json(
    model: SurfaceModel, zd: ZariskiDecomposition, divisor_name: str
) -> dict:
    return {
        "divisor": divisor_name,
        "level": zd.level,
        "pseudoeffective": True,
        "P": class_json(model, zd.level, zd.P),
        "N": divisor_json(model, zd.N),
        "support": [_display(model, zd.level, c) for c in zd.N.support],
        "big": zd.big,
        "nnef": [_display(model, zd.level, c) for c in zd.N.support],
        "disclaimer": DISCLAIMER,
    }


def loci_json(pr: PotentialReport, eps: Fraction | None) -> dict:
    pair = pr.pair
    model = pair.model
    out = {
        "nklt": [component_json(model, pair.level, c) for c in pr.nklt],
        "pnklt": [component_json(model, pair.level, c) for c in pr.pnklt],
        "eps0": numeral(pr.eps0) if pr.eps0 is not None else None,
        "eps": numeral(eps) if eps is not None else None,
        "eps_spnklt": None,
    }
    if eps is not None:
        out["eps_spnklt"] = [
            component_json(model, pair.level, c)
            for c in eps_spnklt(pair, eps)
        ]
    return out


def fano_json(model: SurfaceModel, verdict: FanoVerdict) -> dict:
    return {
        "value": verdict.fano_type,
        "reason": verdict.reason,
        "big": verdict.big,
        "xn_klt": verdict.xn_klt,
        "N": divisor_json(model, verdict.negative_part)
        if verdict.negative_part is not None
        else None,
    }


def rcc_json(pr: PotentialReport) -> dict:
    try:
        value, reason = rcc.surface_rcc_via_pnklt(pr)
    except ValueError as exc:
        return {"applicable": False, "reason": str(exc)}
    return {"applicable": True, "value": value, "reason": reason}


def _ledger_json(pr: PotentialReport, eps: Fraction | None) -> dict:
    """The ledger's int numerators, printed over the pair's ``den``."""
    model, den = pr.pair.model, pr.pair.den
    text = numeral if den == 1 else lambda v: numeral_over(v, den)
    return {
        _display(model, model.top, cid): {
            "a": text(e.a),
            "sigma_num": text(e.sigma_num),
            "pa": text(e.pa),
        }
        for cid, e in pr.pair.ledger.items()
    }


def _fano_type_json(pr: PotentialReport, eps: Fraction | None) -> dict:
    """With Δ = 0 the pair's own classification gives the verdict."""
    pair = pr.pair
    verdict = (fano_verdict(pr) if pair.delta.is_zero()
               else fano_type_test(pair.model, pair.level))
    return fano_json(pair.model, verdict)


# A pair's report, in print order: each section is built from the pair's
# classification and the --eps value.
SECTIONS = {
    "pair": lambda pr, eps: {
        "level": pr.pair.level,
        "delta": divisor_json(pr.pair.model, pr.pair.delta),
    },
    "ledger": _ledger_json,
    "zariski": lambda pr, eps: zariski_json(
        pr.pair.model, pr.pair.decomposition, "-(K+Delta)"),
    "frakA": lambda pr, eps: numeral(pr.frakA),
    "loci": loci_json,
    "flags": lambda pr, eps: {
        flag: getattr(pr, flag)
        for flag in ("klt", "lc", "potentially_klt", "potentially_lc")
    },
    "fano_type": _fano_type_json,
    "rcc": lambda pr, eps: rcc_json(pr),
}


def pair_sections(pair: PairSpec, names, eps: Fraction | None = None) -> dict:
    """The named sections of the pair's report, in the order given.  The
    pair is classified once, so every theory check runs; a section that
    is not named is not built."""
    pr = classify_pair(pair)
    return {name: SECTIONS[name](pr, eps) for name in names}


def full_report(pair: PairSpec, eps: Fraction | None = None) -> dict:
    """The composite report: every section, in ``SECTIONS`` order."""
    return {
        "schema": REPORT_SCHEMA,
        **pair_sections(pair, SECTIONS, eps),
        "disclaimer": DISCLAIMER,
    }
