"""Divisorial Zariski decomposition on a tower level.

All verdicts here are catalog-relative: nef, pseudoeffective and big are
certified only against the finite curve catalog of the model.  The
catalog holds the base curves and the exceptionals; curves that the
centers imply are not in it, such as the fiber through a center on the
base level of a ruled surface, or the line through two base-level centers
on P².  Where such a curve is negative, or meets N, the answers can be
wrong; the limitation is surfaced in every CLI report.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .lattice import (
    DivisorClass,
    IntersectionForm,
    LDLFactor,
    intersect,
    solve_exact,
    SingularMatrixError,
)
from .surface import Curve, RDivisor, SurfaceModel

NOT_PSEF_MESSAGE = "not pseudoeffective against catalog, or catalog incomplete"


class InvariantViolation(Exception):
    """A structural guarantee of the theory fails on this model.

    Most hold as theorems on the actual surface, so a failure means the
    declared curve catalog is incomplete, e.g. it lacks the fiber through a
    center declared free; ``zariski-fixed-point`` holds by construction, so
    its failure is a fault of the engine.  ``invariant`` names the
    guarantee.  Not a ValueError: it is neither a bad pair nor a
    non-pseudoeffective divisor.
    """

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"{invariant}: {detail}")


class NotPseudoeffectiveError(ValueError):
    def __init__(self, detail: str = ""):
        msg = NOT_PSEF_MESSAGE + (f" ({detail})" if detail else "")
        super().__init__(msg)


class NefCertificate(NamedTuple):
    tested_curves: tuple[str, ...]
    violations: tuple[tuple[str, int | Fraction], ...]

    @property
    def nef(self) -> bool:
        return not self.violations


class ZariskiDecomposition(NamedTuple):
    level: int
    P: DivisorClass
    N: RDivisor
    big: bool  # P² > 0


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


def intersection_rows(curves: Sequence[Curve], form: IntersectionForm):
    """``row(i)``: the nonzero Cᵢ·Cⱼ over the catalog ``curves``, as {j: Cᵢ·Cⱼ}
    in catalog order.

    An index from each coordinate to the curves with a nonzero term there,
    read off the sparse classes, names the curves that can meet Cᵢ: through
    an exceptional coordinate (E² = −1, orthogonal to the rest) only those
    with a term at it, through a base coordinate u those with a term at any
    v with gram[u][v] ≠ 0.  Only these are intersected with Cᵢ.
    """
    by_coordinate: dict[int, list[int]] = {}
    for j, c in enumerate(curves):
        for u in c.cls.terms:
            by_coordinate.setdefault(u, []).append(j)
    gram = form.gram
    meets = [[v for v, g in enumerate(gram_u) if g] for gram_u in gram]

    def row(i: int) -> dict[int, int | Fraction]:
        ci = curves[i].cls
        reached: set[int] = set()
        for u in ci.terms:
            for v in meets[u] if u < len(gram) else (u,):
                reached.update(by_coordinate.get(v, ()))
        out = {}
        for j in sorted(reached):
            v = intersect(ci, curves[j].cls, form)
            if v:
                out[j] = v
        return out

    return row


def _p_dot(dc, x, rows) -> dict[int, int | Fraction]:
    """P·Cⱼ = D·Cⱼ − Σ xₖ·rowₖ[j] for every j that a row touches, over the
    rows' nonzeros only; an untouched curve has P·C = D·C."""
    pc: dict[int, int | Fraction] = {}
    for xk, row in zip(x, rows):
        if xk:
            for j, v in row.items():
                pc[j] = pc.get(j, dc[j]) - xk * v
    return pc


def zariski_decompose(
    model: SurfaceModel, level: int, D: DivisorClass
) -> ZariskiDecomposition:
    """Iterative negative-curve algorithm (Bauer 2009).

    Start with the catalog curves meeting D negatively; at each round solve
    gram(S)·x = (D·C) exactly, set N = Σ x_C·C and P = D − N, and add every
    catalog curve with P·C < 0.  The fixed point is unique, so violators are
    added all at once for determinism.

    S only grows, so D·C is computed once per curve and the row Cᵢ·C once
    when Cᵢ joins, as its nonzeros: ``intersection_rows`` (built when S
    first becomes nonempty) intersects Cᵢ only with the curves that share a
    coordinate with it through the form.  gram(S) is one sparse LDLᵀ factor
    extended by the rows of the curves that join, and bordered by every
    curve off S that a row touches: the factor keeps P·C of each such curve
    up to date as curves join, at one entry per curve a joining row or L
    row reaches, so a round solves nothing and reads its violators off the
    border.  A curve off S that no row touches keeps P·C = D·C ≥ 0.  While
    every pivot is negative, gram(S) is negative definite (Sylvester) and x,
    back-substituted once after the last round, is the unique solution.  A
    pivot ≥ 0 means the final support cannot be negative definite, so D is
    not pseudoeffective; from that round on each system is solved afresh by
    ``solve_exact`` on the dense gram(S) read off the rows, and P·C is
    recomputed over the rows' nonzeros, so the error names the same failure
    (singular system, negative coefficient, indefinite support) as before.
    P is nef against the catalog on return: one pass over the rows with the
    back-substituted x checks P·C = 0 on S and P·C ≥ 0 on every touched
    curve off it, and raises ``InvariantViolation`` naming the curves if
    the factor and its border ever disagree with x.
    """
    lvl = model.level(level)
    if D.lattice_id != lvl.form.lattice_id:
        raise ValueError("divisor class does not live at the requested level")
    curves = lvl.curves
    dc = [intersect(D, c.cls, lvl.form) for c in curves]
    S = [j for j, v in enumerate(dc) if v < 0]  # indices into curves
    row_of = intersection_rows(curves, lvl.form) if S else None
    rows: list[dict[int, int | Fraction]] = []  # rows[k] = {j: C_S[k]·C_j ≠ 0}
    joined: set[int] = set()  # catalog indices with a row
    factor = LDLFactor(dc)
    definite = True
    while len(rows) < len(S):
        for i in S[len(rows):]:
            joined.add(i)
            row = row_of(i)
            rows.append(row)
            if definite:
                definite = factor.extend(i, row) < 0
        if definite:
            off_s = factor.residual
        else:
            try:
                x = solve_exact([[r.get(j, 0) for j in S] for r in rows],
                                [dc[i] for i in S])
            except SingularMatrixError:
                raise NotPseudoeffectiveError("singular curve configuration")
            off_s = {j: v for j, v in _p_dot(dc, x, rows).items()
                     if j not in joined}
        S.extend(sorted(j for j, v in off_s.items() if v < 0))
    if definite:
        x = factor.solve()
    if any(xi < 0 for xi in x):
        raise NotPseudoeffectiveError("negative coefficient in N")
    if not definite:
        raise NotPseudoeffectiveError("support Gram matrix not negative definite")
    pc = _p_dot(dc, x, rows)
    on_s = [curves[i].id for i in S if pc.get(i, dc[i]) != 0]
    off_s = [curves[j].id for j, v in pc.items() if j not in joined and v < 0]
    if on_s or off_s:
        raise InvariantViolation(
            "zariski-fixed-point",
            f"P·C ≠ 0 on Supp N at {', '.join(on_s) or 'no curve'}; "
            f"P·C < 0 off it at {', '.join(off_s) or 'no curve'}",
        )
    P = D.plus((-xi, curves[i].cls) for i, xi in zip(S, x))
    N = RDivisor.make(level, [(curves[i].id, xi) for i, xi in zip(S, x)])
    return ZariskiDecomposition(level, P, N, intersect(P, P, lvl.form) > 0)


def is_big(model: SurfaceModel, level: int, D: DivisorClass) -> bool:
    """Catalog-relative bigness: P² > 0 for the positive part."""
    return zariski_decompose(model, level, D).big

