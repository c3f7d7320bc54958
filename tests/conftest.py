"""Shared model builders, fuzz generators and the brute-force oracle."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import pklt_lab as pl
from pklt_lab.potential import anti_log_canonical


def p2():
    return pl.make_base(pl.ProjectivePlane())


def ruled(g, e):
    return pl.make_base(pl.Ruled(g, e))


def blown_ruled(g, e):
    """Ruled surface blown up at one point of the negative section."""
    return pl.blow_up(ruled(g, e), pl.BlowUpCenter((("C0", 1),)))


def chain_model(n):
    """Ruled (2, 3) blown up at a point of C0, then at n - 1 successive
    infinitely-near points: a Zariski support that grows by one curve per
    round."""
    m = blown_ruled(2, 3)
    for k in range(2, n + 1):
        m = pl.blow_up(m, pl.BlowUpCenter((), near=f"E{k - 1}"))
    return m


def cubic12_model():
    """P² with a genus-1 cubic in the catalog, blown up at 12 of its points."""
    base = pl.AbstractLattice(
        basis=("L",),
        gram=((Fraction(1),),),
        canonical=(Fraction(-3),),
        curves=(
            pl.CurveSpec("L", (Fraction(1),), 0),
            pl.CurveSpec("C", (Fraction(3),), 1),
        ),
    )
    m = pl.make_base(base)
    for _ in range(12):
        m = pl.blow_up(m, pl.BlowUpCenter((("C", 1),)))
    return m


@pytest.fixture
def ruled_blowup_pair():
    return pl.make_pair(blown_ruled(2, 3), 1)


# ---------------------------------------------------------------------------
# fuzz generators

COEFF_POOL = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 3),
              Fraction(1, 4), Fraction(2, 3), Fraction(1)]

# Boundary coefficients strictly below 1.  A coefficient-1 boundary curve on
# an exceptional over a center that was declared free simulates a catalog
# with a missing curve (the real surface has a fiber/line through any point),
# and catalog-relative connectedness of pNklt can then fail even though it
# holds on the actual surface.  Fuzz runs that exercise classify_pair or the
# connectedness property therefore draw from this pool.
KLT_COEFF_POOL = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 3),
                  Fraction(1, 4), Fraction(2, 3), Fraction(3, 4)]


def random_tower(rng: random.Random, max_blowups=5) -> pl.SurfaceModel:
    if rng.random() < 0.5:
        m = p2()
    else:
        m = ruled(rng.choice([0, 0, 1, 2]), rng.choice([1, 2, 3]))
    for _ in range(rng.randrange(0, max_blowups + 1)):
        lvl = m.level(m.top)
        curves = list(lvl.curves)
        roll = rng.random()
        incidences = ()
        if roll < 0.25:
            pass  # free point
        elif roll < 0.70:
            incidences = ((rng.choice(curves).id, 1),)
        else:
            pairs = [
                (a, b)
                for i, a in enumerate(curves)
                for b in curves[i + 1 :]
                if pl.intersect(a.cls, b.cls, lvl.form) >= 1
            ]
            if pairs:
                a, b = rng.choice(pairs)
                incidences = ((a.id, 1), (b.id, 1))
            else:
                incidences = ((rng.choice(curves).id, 1),)
        m = pl.blow_up(m, pl.BlowUpCenter(incidences))
    return m


def random_effective_divisor(rng: random.Random, model, level) -> pl.RDivisor:
    lvl = model.level(level)
    pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
            Fraction(3, 2), Fraction(1, 3)]
    return pl.RDivisor.make(
        level, {c.id: rng.choice(pool) for c in lvl.curves}
    )


def random_pair(rng: random.Random, max_blowups=5, pool=COEFF_POOL):
    """A validated random pair; retries until -(K+Δ) is catalog-psef."""
    while True:
        model = random_tower(rng, max_blowups)
        level = rng.randrange(0, model.top + 1)
        delta = pl.RDivisor.make(
            level,
            {c.id: rng.choice(pool) for c in model.level(level).curves},
        )
        try:
            return pl.make_pair(model, level, delta)
        except (pl.NotPseudoeffectiveError, pl.PairError):
            continue


def random_klt_pair(rng: random.Random, max_blowups=5):
    """Random pair with boundary coefficients < 1 (catalog-faithful fuzzing)."""
    return random_pair(rng, max_blowups, pool=KLT_COEFF_POOL)


def random_center(rng: random.Random, model) -> pl.BlowUpCenter:
    lvl = model.level(model.top)
    curves = list(lvl.curves)
    roll = rng.random()
    if roll < 0.3:
        return pl.BlowUpCenter(())
    if roll < 0.7:
        return pl.BlowUpCenter(((rng.choice(curves).id, 1),))
    pairs = [
        (a, b)
        for i, a in enumerate(curves)
        for b in curves[i + 1 :]
        if pl.intersect(a.cls, b.cls, lvl.form) >= 1
    ]
    if pairs:
        a, b = rng.choice(pairs)
        return pl.BlowUpCenter(((a.id, 1), (b.id, 1)))
    return pl.BlowUpCenter(((rng.choice(curves).id, 1),))


# ---------------------------------------------------------------------------
# brute-force Zariski oracle


def brute_force_zariski(model, level, D):
    """All subset-enumeration decompositions satisfying every validity clause.

    A subset S qualifies when gram(S)·x = (D·C) has a solution with all
    x > 0, gram(S) is negative definite, and P = D - Σ x·C is catalog-nef
    (P·C = 0 on S holds by construction of x).
    """
    lvl = model.level(level)
    curves = list(lvl.curves)
    survivors = []
    for r in range(len(curves) + 1):
        for subset in itertools.combinations(curves, r):
            if subset:
                gram = pl.gram_submatrix([c.cls for c in subset], lvl.form)
                rhs = [pl.intersect(D, c.cls, lvl.form) for c in subset]
                try:
                    x = pl.solve_exact(gram, rhs)
                except pl.SingularMatrixError:
                    continue
                if any(xc <= 0 for xc in x):
                    continue
                if not pl.is_negative_definite(gram):
                    continue
            else:
                x = []
            n_cls = D.scale(0)
            for c, xc in zip(subset, x):
                n_cls = n_cls + c.cls.scale(xc)
            P = D - n_cls
            if any(pl.intersect(P, c.cls, lvl.form) < 0 for c in curves):
                continue
            survivors.append(
                (frozenset(c.id for c in subset),
                 {c.id: xc for c, xc in zip(subset, x)})
            )
    return survivors


# ---------------------------------------------------------------------------
# per-round Zariski reference


def reference_zariski(model, level, D):
    """Bauer's iteration as a fresh solve per round: rebuild gram(S), solve
    it with ``solve_exact``, and certify with ``is_negative_definite`` and
    ``is_nef_against_catalog``.  The oracle for zariski_decompose's
    incremental factor, which must return the same decomposition or raise
    the same error."""
    lvl = model.level(level)
    if D.lattice_id != lvl.form.lattice_id:
        raise ValueError("divisor class does not live at the requested level")
    in_s = set()
    S = []
    for c in lvl.curves:
        if pl.intersect(D, c.cls, lvl.form) < 0:
            S.append(c)
            in_s.add(c.id)
    x = []
    while True:
        if S:
            gram = pl.gram_submatrix([c.cls for c in S], lvl.form)
            rhs = [pl.intersect(D, c.cls, lvl.form) for c in S]
            try:
                x = pl.solve_exact(gram, rhs)
            except pl.SingularMatrixError:
                raise pl.NotPseudoeffectiveError("singular curve configuration")
            n_cls = D.scale(0)
            for c, xc in zip(S, x):
                n_cls = n_cls + c.cls.scale(xc)
        else:
            gram = []
            n_cls = D.scale(0)
        P = D - n_cls
        new = [
            c
            for c in lvl.curves
            if c.id not in in_s and pl.intersect(P, c.cls, lvl.form) < 0
        ]
        if not new:
            break
        S.extend(new)
        in_s.update(c.id for c in new)
    if any(xc < 0 for xc in x):
        raise pl.NotPseudoeffectiveError("negative coefficient in N")
    if S and not pl.is_negative_definite(gram):
        raise pl.NotPseudoeffectiveError(
            "support Gram matrix not negative definite"
        )
    N = pl.RDivisor.make(level, [(c.id, xc) for c, xc in zip(S, x)])
    cert = pl.is_nef_against_catalog(model, level, P)
    assert cert.nef
    assert all(pl.intersect(P, c.cls, lvl.form) == 0 for c in S)
    return pl.ZariskiDecomposition(
        level,
        P,
        N,
        tuple(c.id for c in S),
        tuple(tuple(row) for row in gram),
        cert,
    )


__all__ = [
    "p2",
    "ruled",
    "blown_ruled",
    "chain_model",
    "cubic12_model",
    "random_tower",
    "random_effective_divisor",
    "random_pair",
    "random_klt_pair",
    "random_center",
    "brute_force_zariski",
    "reference_zariski",
    "anti_log_canonical",
]
