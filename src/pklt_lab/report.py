"""Deterministic JSON report assembly shared by the CLI and the corpus."""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass
from .modelio import LoadedModel
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
from .zariski import ZariskiDecomposition, zariski_decompose
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
        _display(model, d.level, cid): str(v) for cid, v in d.terms
    }


def class_json(model: SurfaceModel, level: int, cls: DivisorClass) -> dict:
    labels = model.level(level).basis_labels
    return {lab: str(cls.terms.get(i, 0)) for i, lab in enumerate(labels)}


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


def loci_json(pair: PairSpec, pr: PotentialReport, eps: Fraction | None) -> dict:
    model = pair.model
    out = {
        "nklt": [component_json(model, pair.level, c) for c in pr.nklt],
        "pnklt": [component_json(model, pair.level, c) for c in pr.pnklt],
        "eps0": str(pr.eps0) if pr.eps0 is not None else None,
        "eps": str(eps) if eps is not None else None,
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


def rcc_json(pr: PotentialReport) -> dict:
    try:
        value, reason = rcc.surface_rcc_via_pnklt(pr)
    except ValueError as exc:
        return {"applicable": False, "reason": str(exc)}
    return {"applicable": True, "value": value, "reason": reason}


def _pair_sections(pr: PotentialReport, eps: Fraction | None) -> dict:
    """pair_report from the pair's classification."""
    pair = pr.pair
    model = pair.model
    ledger = {
        e.display: {
            "a": str(e.a),
            "sigma_num": str(e.sigma_num),
            "pa": str(e.pa),
        }
        for e in pair.ledger.entries
    }
    return {
        "schema": REPORT_SCHEMA,
        "pair": {
            "level": pair.level,
            "delta": divisor_json(model, pair.delta),
        },
        "ledger": ledger,
        "zariski": zariski_json(model, pair.decomposition, "-(K+Delta)"),
        "frakA": str(pr.frakA),
        "loci": loci_json(pair, pr, eps),
        "flags": {
            "klt": pr.klt,
            "lc": pr.lc,
            "potentially_klt": pr.potentially_klt,
            "potentially_lc": pr.potentially_lc,
        },
    }


def pair_report(pair: PairSpec, eps: Fraction | None = None) -> dict:
    """The sections about the pair itself: ledger, Zariski data, loci, flags."""
    return _pair_sections(classify_pair(pair), eps)


def full_report(pair: PairSpec, eps: Fraction | None = None) -> dict:
    """The composite report: the pair sections, then the Fano-type and
    RCC verdicts on the pair's surface.  With Δ = 0 the pair's own
    classification gives the Fano-type verdict; the RCC verdict always
    reads it."""
    pr = classify_pair(pair)
    out = _pair_sections(pr, eps)
    if pair.delta.is_zero():
        verdict = fano_verdict(pr)
    else:
        verdict = fano_type_test(pair.model, pair.level)
    out["fano_type"] = fano_json(pair.model, verdict)
    out["rcc"] = rcc_json(pr)
    out["disclaimer"] = DISCLAIMER
    return out


def decompose_named(
    loaded: LoadedModel, level: int, name: str
) -> ZariskiDecomposition:
    """Resolve a divisor name ('antiK'/'K' are built in) and decompose it."""
    model = loaded.model
    if name in loaded.divisors:
        cls = loaded.divisor_at(name, level).class_at(model)
    elif name == "antiK":
        cls = -model.level(level).canonical
    elif name == "K":
        cls = model.level(level).canonical
    else:
        raise KeyError(name)
    return zariski_decompose(model, level, cls)
