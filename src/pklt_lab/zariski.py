"""Divisorial Zariski decomposition on a tower level.

All verdicts here are catalog-relative: nef, pseudoeffective and big are
certified only against the finite curve catalog of the model.  On the
supported bases every irreducible negative curve that the in-scope
divisors can meet is in the catalog, so the answers are exact for them;
the limitation is surfaced in every CLI report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    DivisorClass,
    LDLFactor,
    intersect,
    solve_exact,
    SingularMatrixError,
)
from .surface import RDivisor, SurfaceModel

NOT_PSEF_MESSAGE = "not pseudoeffective against catalog, or catalog incomplete"

#: Sentinel returned by nnef_locus when the divisor is not pseudoeffective.
ENTIRE_SURFACE = "entire-surface"


class NotPseudoeffectiveError(ValueError):
    def __init__(self, detail: str = ""):
        msg = NOT_PSEF_MESSAGE + (f" ({detail})" if detail else "")
        super().__init__(msg)


@dataclass(frozen=True)
class NefCertificate:
    tested_curves: tuple[str, ...]
    violations: tuple[tuple[str, Fraction], ...]

    @property
    def nef(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ZariskiDecomposition:
    level: int
    P: DivisorClass
    N: RDivisor
    support: tuple[str, ...]  # curves accumulated by the iteration
    gram: tuple[tuple[Fraction, ...], ...]
    nef_certificate: NefCertificate


def is_nef_against_catalog(
    model: SurfaceModel, level: int, D: DivisorClass
) -> NefCertificate:
    lvl = model.level(level)
    tested = []
    violations = []
    for c in lvl.curves:
        tested.append(c.id)
        v = intersect(D, c.cls, lvl.form)
        if v < 0:
            violations.append((c.id, v))
    return NefCertificate(tuple(tested), tuple(violations))


def zariski_decompose(
    model: SurfaceModel, level: int, D: DivisorClass
) -> ZariskiDecomposition:
    """Iterative negative-curve algorithm (Bauer 2009).

    Start with the catalog curves meeting D negatively; at each round solve
    gram(S)·x = (D·C) exactly, set N = Σ x_C·C and P = D − N, and add every
    catalog curve with P·C < 0.  The fixed point is unique, so violators are
    added all at once for determinism.

    S only grows, so D·C and the row Cᵢ·C are computed once per curve, and
    gram(S) is one LDLᵀ factor extended by the rows of the curves that join:
    a round is one back-substitution, and P·C = D·C − Σ xᵢ·Cᵢ·C.  While every
    pivot is negative, gram(S) is negative definite (Sylvester) and x is the
    unique solution.  A pivot ≥ 0 means the final support cannot be negative
    definite, so D is not pseudoeffective; from that round on each system is
    solved afresh by ``solve_exact``, so the error names the same failure
    (singular system, negative coefficient, indefinite support) as before.
    The nef certificate is read off the final P·C: ≥ 0 off S once no curve
    joins, and 0 on S because x solves the system.
    """
    lvl = model.level(level)
    if D.lattice_id != lvl.form.lattice_id:
        raise ValueError("divisor class does not live at the requested level")
    curves = lvl.curves
    dc = [intersect(D, c.cls, lvl.form) for c in curves]
    S = [j for j, v in enumerate(dc) if v < 0]  # indices into curves
    rows: list[list[Fraction]] = []  # rows[i][j] = C_S[i]·C_j
    factor = LDLFactor()
    definite = True
    x: list[Fraction] = []
    pc = dc  # P·C per catalog curve
    while len(rows) < len(S):
        for i in S[len(rows):]:
            row = [intersect(curves[i].cls, c.cls, lvl.form) for c in curves]
            rows.append(row)
            if definite:
                pivot = factor.extend([row[j] for j in S[: len(rows)]], dc[i])
                definite = pivot < 0
        if definite:
            x = factor.solve()
        else:
            try:
                x = solve_exact([[r[j] for j in S] for r in rows],
                                [dc[i] for i in S])
            except SingularMatrixError:
                raise NotPseudoeffectiveError("singular curve configuration")
        pc = list(dc)
        for xi, r in zip(x, rows):
            for j, v in enumerate(r):
                if v:
                    pc[j] -= xi * v
        in_s = set(S)
        S.extend(j for j, v in enumerate(pc) if v < 0 and j not in in_s)
    if any(xi < 0 for xi in x):
        raise NotPseudoeffectiveError("negative coefficient in N")
    if not definite:
        raise NotPseudoeffectiveError("support Gram matrix not negative definite")
    assert all(pc[i] == 0 for i in S), "P not orthogonal to Supp N"
    p = list(D.coeffs)
    for i, xi in zip(S, x):
        for t, c in enumerate(curves[i].cls.coeffs):
            if c:
                p[t] -= xi * c
    N = RDivisor.make(level, [(curves[i].id, xi) for i, xi in zip(S, x)])
    cert = NefCertificate(
        tuple(c.id for c in curves),
        tuple((c.id, v) for c, v in zip(curves, pc) if v < 0),
    )
    return ZariskiDecomposition(
        level,
        DivisorClass(tuple(p), D.lattice_id),
        N,
        tuple(curves[i].id for i in S),
        tuple(tuple(r[j] for j in S) for r in rows),
        cert,
    )


def is_pseudoeffective(model: SurfaceModel, level: int, D: DivisorClass) -> bool:
    try:
        zariski_decompose(model, level, D)
        return True
    except NotPseudoeffectiveError:
        return False


def is_big(model: SurfaceModel, level: int, D: DivisorClass) -> bool:
    """Catalog-relative bigness: P² > 0 for the positive part."""
    zd = zariski_decompose(model, level, D)
    lvl = model.level(level)
    return intersect(zd.P, zd.P, lvl.form) > 0


def nnef_locus(model: SurfaceModel, level: int, D: DivisorClass):
    """Support of N, or the ENTIRE_SURFACE sentinel if D is not psef."""
    try:
        zd = zariski_decompose(model, level, D)
    except NotPseudoeffectiveError:
        return ENTIRE_SURFACE
    return list(zd.N.support)
