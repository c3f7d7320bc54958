"""Deterministic JSON report assembly shared by the CLI and the corpus."""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, intersect
from .potential import (
    NEG_INFINITY,
    FanoVerdict,
    PairSpec,
    PotentialReport,
    classify_pair,
    eps_spnklt,
    fano_type_of_pair,
    fano_type_test,
)
from .surface import RDivisor, SurfaceModel
from .zariski import (
    NotPseudoeffectiveError,
    ZariskiDecomposition,
    zariski_decompose,
)
from . import rcc

REPORT_SCHEMA = "pklt-lab/report/1"

DISCLAIMER = (
    "nef/big/pseudoeffective verdicts are certified against the model's "
    "declared curve catalog only; curves outside the catalog are not "
    "considered"
)


def rat_str(x) -> str:
    if x is NEG_INFINITY:
        return "-inf"
    return str(Fraction(x))


def _display(model: SurfaceModel, level: int, cid: str) -> str:
    return model.level(level).curve(cid).display


def divisor_json(model: SurfaceModel, d: RDivisor) -> dict:
    return {
        _display(model, d.level, cid): rat_str(v) for cid, v in d.terms
    }


def class_json(model: SurfaceModel, level: int, cls: DivisorClass) -> dict:
    labels = model.level(level).basis_labels
    return {lab: rat_str(c) for lab, c in zip(labels, cls.coeffs)}


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
    lvl = model.level(zd.level)
    return {
        "divisor": divisor_name,
        "level": zd.level,
        "pseudoeffective": True,
        "P": class_json(model, zd.level, zd.P),
        "N": divisor_json(model, zd.N),
        "support": [_display(model, zd.level, c) for c in zd.N.support],
        "big": intersect(zd.P, zd.P, lvl.form) > 0,
        "nnef": [_display(model, zd.level, c) for c in zd.N.support],
        "disclaimer": DISCLAIMER,
    }


def loci_json(pair: PairSpec, pr: PotentialReport, eps: Fraction | None) -> dict:
    model = pair.model
    out = {
        "nklt": [component_json(model, pair.level, c) for c in pr.nklt],
        "pnklt": [component_json(model, pair.level, c) for c in pr.pnklt],
        "eps0": rat_str(pr.eps0) if pr.eps0 is not None else None,
        "eps": rat_str(eps) if eps is not None else None,
        "eps_spnklt": None,
    }
    if eps is not None:
        out["eps_spnklt"] = [
            component_json(model, pair.level, c)
            for c in eps_spnklt(pair, eps)
        ]
    return out


def fano_json(model: SurfaceModel, verdict: FanoVerdict) -> dict:
    out = {
        "value": verdict.fano_type,
        "reason": verdict.reason,
        "big": verdict.big,
        "xn_klt": verdict.xn_klt,
        "N": divisor_json(model, verdict.negative_part)
        if verdict.negative_part is not None
        else None,
    }
    return out


def rcc_json(pair: PairSpec) -> dict:
    try:
        value, reason = rcc.surface_rcc_via_pnklt(pair)
    except ValueError as exc:
        return {"applicable": False, "reason": str(exc)}
    return {"applicable": True, "value": value, "reason": reason}


def pair_report(pair: PairSpec, eps: Fraction | None = None) -> dict:
    """The sections about the pair itself: ledger, Zariski data, loci, flags."""
    model = pair.model
    pr = classify_pair(pair)
    ledger = {
        e.display: {
            "a": rat_str(e.a),
            "sigma_num": rat_str(e.sigma_num),
            "pa": rat_str(e.pa),
        }
        for e in pr.ledger.entries
    }
    return {
        "schema": REPORT_SCHEMA,
        "pair": {
            "level": pair.level,
            "delta": divisor_json(model, pair.delta),
        },
        "ledger": ledger,
        "zariski": zariski_json(model, pair.decomposition, "-(K+Delta)"),
        "frakA": rat_str(pr.frakA),
        "loci": loci_json(pair, pr, eps),
        "flags": {
            "klt": pr.klt,
            "lc": pr.lc,
            "potentially_klt": pr.potentially_klt,
            "potentially_lc": pr.potentially_lc,
        },
    }


def full_report(pair: PairSpec, eps: Fraction | None = None) -> dict:
    """The composite report: the pair sections, then the Fano-type and
    RCC verdicts on the pair's surface.  With Δ = 0 the pair already holds
    the decomposition of -K that the Fano-type test needs."""
    out = pair_report(pair, eps)
    if pair.delta.is_zero():
        verdict = fano_type_of_pair(pair)
    else:
        verdict = fano_type_test(pair.model, pair.level)
    out["fano_type"] = fano_json(pair.model, verdict)
    out["rcc"] = rcc_json(pair)
    out["disclaimer"] = DISCLAIMER
    return out


def decompose_named(
    model: SurfaceModel, level: int, name: str, divisors
) -> tuple[ZariskiDecomposition, str]:
    """Resolve a divisor name ('antiK'/'K' are built in) and decompose it."""
    lvl = model.level(level)
    if divisors is not None and name in divisors.divisors:
        cls = divisors.divisor_at(name, level).class_at(model)
    elif name == "antiK":
        cls = -lvl.canonical
    elif name == "K":
        cls = lvl.canonical
    else:
        raise KeyError(name)
    return zariski_decompose(model, level, cls), name
