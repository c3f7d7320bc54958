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

from math import lcm
from typing import NamedTuple, Sequence

from .lattice import (
    DivisorClass,
    IntersectionForm,
    LDLFactor,
    intersect,
    quotient,
    solve_exact,
    SingularMatrixError,
)
from .surface import RDivisor, SurfaceModel

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


class ZariskiDecomposition(NamedTuple):
    level: int
    P: DivisorClass
    N: RDivisor
    big: bool  # P² > 0


def intersection_rows(classes: Sequence[DivisorClass], form: IntersectionForm,
                      scale: int):
    """``row(i)``: the nonzero Cᵢ·Cⱼ over the catalog ``classes``, as
    {j: scale·Cᵢ·Cⱼ} in catalog order; ``scale`` makes each an int (the
    c of ``zariski_decompose`` does).

    An index from each coordinate to the curves with a nonzero term there,
    read off the sparse classes, names the curves that can meet Cᵢ: through
    an exceptional coordinate (E² = −1, orthogonal to the rest) only those
    with a term at it, through a base coordinate u those with a term at any
    v with gram[u][v] ≠ 0.  Only these are intersected with Cᵢ.
    """
    by_coordinate: dict[int, list[int]] = {}
    for j, c in enumerate(classes):
        for u in c.terms:
            by_coordinate.setdefault(u, []).append(j)
    gram = form.gram
    meets = [[v for v, g in enumerate(gram_u) if g] for gram_u in gram]

    def row(i: int) -> dict[int, int]:
        ci = classes[i]
        reached: set[int] = set()
        for u in ci.terms:
            for v in meets[u] if u < len(gram) else (u,):
                reached.update(by_coordinate.get(v, ()))
        out = {}
        for j in sorted(reached):
            v = intersect(ci, classes[j], form)
            if v:
                out[j] = v.numerator * (scale // v.denominator)
        return out

    return row


def _p_dot(b, x, rows, q=1) -> dict:
    """q·bⱼ − Σ xₖ·rowₖ[j] for every j that a row touches, over the rows'
    nonzeros only; for x = q·x′ with b = Σ x′ₖ·rowₖ on S, and b = c·(Dn·C),
    it is c·q·d·P·Cⱼ.  An untouched curve has P·C = D·C."""
    pc = {}
    for xk, row in zip(x, rows):
        if xk:
            for j, v in row.items():
                pc[j] = (pc[j] if j in pc else q * b[j]) - xk * v
    return pc


def zariski_decompose(
    model: SurfaceModel, level: int, D: DivisorClass, d: int = 1
) -> ZariskiDecomposition:
    """The decomposition of D/d, for a positive int d: iterative
    negative-curve algorithm (Bauer 2009).

    Start with the catalog curves meeting D negatively; at each round solve
    gram(S)·x = (D·C) exactly, set N = Σ x_C·C and P = D − N, and add every
    catalog curve with P·C < 0, all at once: the fixed point is unique.

    D/d is read through Dn = e·D over d·e, e the lcm of D's denominators
    (1 for an int class, such as ``integral_class`` builds), so D·C and
    D² are products of integral classes, ints on an integral form and
    catalog; d·e only scales the system, so no sign, support or canonical
    quotient depends on which d is given.  S only grows, so Dn·C is
    computed once per curve and the row Cᵢ·C once when Cᵢ joins, over
    the curves ``intersection_rows`` finds can meet Cᵢ.  The system is
    solved in ints, its rows and Dn·C scaled by one c = Γ·δ², Γ the lcm
    of the denominators of the base Gram block and δ that of the base
    catalog's coefficients: a blow-up adds only integral coordinates, so
    c clears every Cᵢ·Cⱼ and every Dn·C at every level, and is computed
    only when S is not empty.  c is positive, so
    every sign is kept, by one ``LDLFactor`` extended by the rows that
    join and bordered by the curves off S they touch: a round reads its
    violators off the border by a sign test, and x is back-substituted
    once, after the last round.  A curve that no row touches keeps
    P·C = D·C ≥ 0.  While consecutive minors alternate in sign, gram(S)
    is negative definite; a pivot ≥ 0 means D is not pseudoeffective,
    and from then on each round is solved afresh by
    ``solve_exact`` on the dense gram(S), so the error names the same
    failure (singular system, negative coefficient, indefinite support) as
    a solve per round would.  The factor alone cannot: on P² blown up at
    two points of L, D = K meets a zero pivot (pivots −1, 0 at level 2; 0
    at level 1), yet gram(S) is nonsingular and the solve finds a negative
    coefficient in N.  One pass over the rows with the Cramer numerators
    checks P·C = 0 on S and P·C ≥ 0 off it, in ints, and raises
    ``InvariantViolation`` naming the curves if the factor ever disagrees
    with x.  x and P are read off the numerators X and q = |Δₙ| in ints:
    xₖ = Xₖ/(d·e·q) and P = (q·Dn − Σ Xₖ·Cₖ)/(d·e·q), one int pass for
    P's numerators and one ``quotient`` per coefficient of N and per
    nonzero coordinate of P, so a Fraction is built only for a
    coefficient that is printed.  P² is D·P = D² − Σ xₖ·(D·Cₖ), as
    P·Cₖ = 0 on S, so P² > 0 is read as c·q·Dn² > Σ Xₖ·bₖ.
    """
    lvl = model.level(level)
    if not lvl.has_class(D):  # a class of a lower level is its own pullback
        raise ValueError("divisor class does not live at the requested level")
    if type(d) is not int or d < 1:
        raise ValueError(f"the scale d of D/d must be an int >= 1, not {d!r}")
    at_level = lvl.classes
    ids, classes = list(at_level), list(at_level.values())
    e = lcm(*[v.denominator for v in D.terms.values()])
    Dn = DivisorClass({i: v.numerator * (e // v.denominator)
                       for i, v in D.terms.items()}, D.lattice_id)  # e·D
    dc = [intersect(Dn, cls, lvl.form) for cls in classes]
    S = [j for j, v in enumerate(dc) if v < 0]  # indices into the catalog
    c, b, row_of = 1, dc, None  # with S empty no row is read: P = D/d
    if S:
        lat = model.lattice
        c = lcm(*[v.denominator for row in lat.gram for v in row]) * lcm(
            *[v.denominator for cs in lat.curves for v in cs.coeffs]) ** 2
        b = [v.numerator * (c // v.denominator) for v in dc]  # c·(Dn·C)
        row_of = intersection_rows(classes, lvl.form, c)
    rows: list[dict[int, int]] = []  # rows[k] = {j: c·C_S[k]·C_j ≠ 0}
    joined: set[int] = set()  # catalog indices with a row
    factor = LDLFactor(b)
    definite = True
    while len(rows) < len(S):
        for i in S[len(rows):]:
            joined.add(i)
            row = row_of(i)
            rows.append(row)
            if definite:
                definite = factor.extend(i, row) < 0
        if definite:  # P·Cⱼ has the sign of the residual A/Δₛ
            new = [j for j, (r, s) in factor.residual.items()
                   if r * factor.minors[s] < 0]
        else:
            try:
                x = solve_exact([[r.get(j, 0) for j in S] for r in rows],
                                [b[i] for i in S])
            except SingularMatrixError:
                raise NotPseudoeffectiveError("singular curve configuration")
            new = [j for j, v in _p_dot(b, x, rows).items()
                   if j not in joined and v < 0]
        S.extend(sorted(new))
    if not definite:
        if any(xi < 0 for xi in x):
            raise NotPseudoeffectiveError("negative coefficient in N")
        raise NotPseudoeffectiveError("support Gram matrix not negative definite")
    X, q = factor.solve()
    if any(v < 0 for v in X):  # xₖ has Xₖ's sign: d, q > 0
        raise NotPseudoeffectiveError("negative coefficient in N")
    pc = _p_dot(b, X, rows, q)
    on_s = [ids[i] for i in S if (pc[i] if i in pc else b[i])]
    off_s = [ids[j] for j, v in pc.items() if j not in joined and v < 0]
    if on_s or off_s:
        raise InvariantViolation(
            "zariski-fixed-point",
            f"P·C ≠ 0 on Supp N at {', '.join(on_s) or 'no curve'}; "
            f"P·C < 0 off it at {', '.join(off_s) or 'no curve'}",
        )
    den = d * e * q
    Pn = {j: q * v for j, v in Dn.terms.items()}  # q·Dn − Σ Xₖ·Cₖ
    for i, v in zip(S, X):
        for j, u in classes[i].terms.items():
            Pn[j] = Pn.get(j, 0) - v * u
    P = DivisorClass({j: quotient(v, den) for j, v in Pn.items() if v},
                     D.lattice_id)
    N = RDivisor(level, tuple(sorted(
        (ids[i], quotient(v, den)) for i, v in zip(S, X) if v)))
    big = intersect(Dn, Dn, lvl.form) * c * q > sum(v * b[i] for i, v in zip(S, X))
    return ZariskiDecomposition(level, P, N, big)


def is_big(model: SurfaceModel, level: int, D: DivisorClass) -> bool:
    """Catalog-relative bigness: P² > 0 for the positive part."""
    return zariski_decompose(model, level, D).big

