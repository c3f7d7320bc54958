"""Shared model builders, fuzz generators, the brute-force and reference
oracles, the catalog nef test and the model serializer."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

import pklt_lab as pl
from pklt_lab.modelio import SCHEMA_VERSION, LoadedModel
from pklt_lab.potential import anti_log_canonical, is_connected
from pklt_lab.surface import Curve


def p2():
    return pl.make_base(pl.ProjectivePlane())


def ruled(g, e):
    return pl.make_base(pl.Ruled(g, e))


def blown_ruled(g, e):
    """Ruled surface blown up at one point of the negative section."""
    return pl.blow_up(ruled(g, e), (pl.BlowUpCenter((("C0", 1),)),))


def chain_model(n):
    """Ruled (2, 3) blown up at a point of C0, then at n - 1 successive
    infinitely-near points: a Zariski support that grows by one curve per
    round."""
    return pl.blow_up(blown_ruled(2, 3), [
        pl.BlowUpCenter((), near=f"E{k - 1}") for k in range(2, n + 1)
    ])


def cubic_model(n):
    """P² with a genus-1 cubic in the catalog, blown up at n of its points."""
    base = pl.AbstractLattice(
        basis=("L",),
        gram=((Fraction(1),),),
        canonical=(Fraction(-3),),
        curves=(
            pl.CurveSpec("L", (Fraction(1),), 0),
            pl.CurveSpec("C", (Fraction(3),), 1),
        ),
    )
    return pl.blow_up(pl.make_base(base), [pl.BlowUpCenter((("C", 1),))] * n)


def cubic12_model():
    return cubic_model(12)


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
        m = pl.blow_up(m, (pl.BlowUpCenter(incidences),))
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


def _dense_product(x, y, gram):
    return sum(a * g * b for a, row in zip(x, gram) for g, b in zip(row, y))


def first_negative_pair(spec):
    """The first two distinct catalog curves of a lattice spec that meet
    negatively, with their number under the dense gram; None if none do."""
    for a, b in itertools.combinations(spec.curves, 2):
        num = _dense_product(a.coeffs, b.coeffs, spec.gram)
        if num < 0:
            return a.id, b.id, num
    return None


def first_bad_genus(spec):
    """The index of the first catalog curve of a lattice spec whose
    arithmetic genus 1 + (K·C + C²)/2, under the dense gram, is not an
    integer at least its declared genus, and the ModelError text naming
    it; None if every curve passes."""
    for i, cs in enumerate(spec.curves):
        pa = 1 + Fraction(_dense_product(spec.canonical, cs.coeffs, spec.gram)
                          + _dense_product(cs.coeffs, cs.coeffs, spec.gram), 2)
        if pa.denominator != 1:
            return i, (f"curve {cs.id!r} has arithmetic genus "
                       f"1 + (K.C + C.C)/2 = {pa}, not an integer")
        if pa < cs.genus:
            return i, (f"curve {cs.id!r} has genus {cs.genus} above its "
                       f"arithmetic genus 1 + (K.C + C.C)/2 = {pa}")
    return None


def make_lattice_base(spec):
    """make_base(spec), or None when a catalog curve of ``spec`` has a
    genus its arithmetic genus rules out, or two distinct ones meet
    negatively, after checking that make_base rejects that catalog with
    the ModelError naming the first such curve, with its index, or the
    first such pair and its number."""
    bad = first_bad_genus(spec)
    negative = first_negative_pair(spec)
    if bad is None and negative is None:
        return pl.make_base(spec)
    with pytest.raises(pl.ModelError) as exc:
        pl.make_base(spec)
    if bad is not None:
        index, text = bad
        assert (str(exc.value), exc.value.curve) == (text, index)
        return None
    a, b, num = negative
    assert str(exc.value) == (
        f"catalog curves {a!r} and {b!r} meet negatively: "
        f"intersection number is {num}"
    )
    assert exc.value.curve is None
    return None


def catalog_model(spec):
    """The one-level model over ``spec``'s catalog as declared, negative
    pairs included.  No surface has such a catalog, so make_base rejects
    it; this test-only model feeds it to the catalog-relative solver."""
    m = pl.make_base(spec._replace(curves=()))
    lat = m.level(0).form.lattice_id
    return pl.SurfaceModel(
        spec, m.tag, m.lattice._replace(curves=spec.curves), m.centers,
        {cs.id: Curve(cs.id, pl.DivisorClass.dense(cs.coeffs, lat), cs.genus, 0, 0)
         for cs in spec.curves},
    )


LATTICE_GRAM = ((Fraction(1), Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(-1), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(-1)))
LATTICE_K = (Fraction(-3), Fraction(1), Fraction(1))


def random_lattice_spec(rng):
    """A rank-3 lattice base (gram diag(1, −1, −1)) with 1 to 5 catalog
    curves of random small integer classes; often two of them meet
    negatively."""
    curves = tuple(
        pl.CurveSpec(
            f"C{i}", tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)), 0
        )
        for i in range(rng.randint(1, 5))
    )
    return pl.AbstractLattice(("H", "A", "B"), LATTICE_GRAM, LATTICE_K, curves)


def random_lattice_tower(rng):
    """A random_lattice_spec base blown up at random centers, some tangent;
    None when make_base rejects the catalog for a curve's genus or a
    negative pair (checked by make_lattice_base).  Callers count both
    kinds of draw."""
    m = make_lattice_base(random_lattice_spec(rng))
    if m is None:
        return None
    for _ in range(rng.randrange(0, 6)):
        if rng.random() < 0.2:
            center = pl.BlowUpCenter(((rng.choice(list(m.curves)), 2),))
        else:
            center = random_center(rng, m)
        m = pl.blow_up(m, (center,))
    return m


# ---------------------------------------------------------------------------
# dense tower reference


def reference_tower(model):
    """Every level of ``model`` rebuilt from its base and centers by the
    dense recipe: each blow-up copies every curve's class with one more
    zero coordinate, −m on the curves through the center, and appends
    E = (0, ..., 0, 1); K gains a 1.  Per level: (basis labels, canonical,
    [(id, genus, display, class)]), classes as dense coefficient tuples."""
    one, zero = Fraction(1), Fraction(0)
    base = model.base
    if isinstance(base, pl.ProjectivePlane):
        labels, canonical = ["L"], (Fraction(-3),)
        curves = [("L", 0, 0, (one,))]
    elif isinstance(base, pl.Ruled):
        labels = ["C0", "f"]
        canonical = (Fraction(-2), Fraction(2 * base.genus - 2 - base.e))
        curves = [("C0", base.genus, 0, (one, zero)), ("f", 0, 0, (zero, one))]
    else:
        labels, canonical = list(base.basis), tuple(base.canonical)
        curves = [(cs.id, cs.genus, 0, tuple(cs.coeffs)) for cs in base.curves]

    def level(k):
        return (tuple(labels), canonical, [
            (cid, g, cid + "~" if born < k else cid, cls)
            for cid, g, born, cls in curves
        ])

    out = [level(0)]
    for k, center in enumerate(model.centers, 1):
        mults = dict(center.effective_incidences())
        curves = [
            (cid, g, born, cls + (Fraction(-mults.get(cid, 0)),))
            for cid, g, born, cls in curves
        ]
        curves.append((center.exceptional_id, 0, k,
                       (zero,) * len(canonical) + (one,)))
        labels.append(center.exceptional_id)
        canonical = canonical + (one,)
        out.append(level(k))
    return out


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
# exact determinant and catalog nef test


def determinant(m):
    """Exact determinant by Gaussian elimination, as a test oracle."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f == 0:
                continue
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


class NefCertificate(NamedTuple):
    tested_curves: tuple[str, ...]
    violations: tuple[tuple[str, int | Fraction], ...]

    @property
    def nef(self) -> bool:
        return not self.violations


def is_nef_against_catalog(model, level, D) -> NefCertificate:
    """D·C for every catalog curve C of the level, and the negative ones."""
    lvl = model.level(level)
    tested = tuple(c.id for c in lvl.curves)
    violations = []
    for c in lvl.curves:
        v = pl.intersect(D, c.cls, lvl.form)
        if v < 0:
            violations.append((c.id, v))
    return NefCertificate(tested, tuple(violations))


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
    assert is_nef_against_catalog(model, level, P).nef
    assert all(pl.intersect(P, c.cls, lvl.form) == 0 for c in S)
    return pl.ZariskiDecomposition(level, P, N, pl.intersect(P, P, lvl.form) > 0)


# ---------------------------------------------------------------------------
# classical Fano-type reference


def reference_fano_type_test(model, level):
    """The surface Fano-type test by the classical criterion, −K big and
    (X, N) klt, with N the negative part of −K decomposed at ``level`` and
    (X, N) analysed as a second pair of its own, its klt flag cross-checked
    against its potentially-klt flag.  The oracle for fano_type_test, which
    reads the verdict off the classification of (X, 0) instead."""
    try:
        zd = pl.zariski_decompose(model, level, -model.level(level).canonical)
    except pl.NotPseudoeffectiveError as exc:
        return pl.FanoVerdict(False, f"-K is {exc}")
    report = pl.classify_pair(pl.make_pair(model, level, zd.N))
    if report.klt != report.potentially_klt:
        raise pl.InvariantViolation(
            "dim-2-klt-equivalence",
            f"(X, N) has klt {report.klt} but potentially klt "
            f"{report.potentially_klt}",
        )
    if not zd.big:
        reason = "-K is not big against the catalog"
    elif not report.klt:
        reason = "(X, N) is not klt"
    else:
        reason = "-K big and (X, N) klt"
    return pl.FanoVerdict(zd.big and report.klt, reason, zd.big, zd.N,
                          report.klt)


# ---------------------------------------------------------------------------
# top-level pair decomposition


def top_level_decomposition(model, level, delta=None):
    """f*(-(K+Δ)) decomposed at the top of the tower, against every catalog
    curve there.  The oracle for make_pair, which decomposes -(K+Δ) at the
    pair level and pulls P and N back."""
    lvl = model.level(level)
    d = -lvl.canonical
    if delta is not None:
        d = d - delta.class_at(model)
    return pl.zariski_decompose(
        model, model.top, pl.pull_back(model, level, model.top, d)
    )



# ---------------------------------------------------------------------------
# RCC from the bare pair


def reference_rcc_json(pair):
    """rcc_json as first written: pNklt and its incidence graph rebuilt from
    the bare pair, unaware of the classification's connectedness check.
    The oracle for rcc_json(classify_pair(pair)) wherever classify_pair
    passes."""
    if not pair.delta.is_zero():
        return {"applicable": False, "reason": "proposition requires Δ = 0"}
    if not pair.big:
        return {"applicable": False, "reason": "proposition requires -K big"}
    comps = pl.pnklt_locus(pair)
    if not comps:
        value = True
        reason = "pNklt(X, 0) is empty; the surface is rationally connected"
    else:
        graph = pl.incidence_graph(pair, comps)
        value = pl.is_rcc_locus(graph)
        bad = sorted(c.ref for c in graph.nodes
                     if c.kind == "curve" and c.genus > 0)
        if value:
            reason = ("pNklt(X, 0) is a connected configuration of rational "
                      "components")
        elif bad and is_connected(graph):
            reason = f"pNklt(X, 0) contains non-rational components: {', '.join(bad)}"
        else:
            reason = "pNklt(X, 0) is not rationally chain connected"
    return {"applicable": True, "value": value, "reason": reason}

__all__ = [
    "p2",
    "ruled",
    "blown_ruled",
    "chain_model",
    "cubic_model",
    "cubic12_model",
    "random_tower",
    "random_effective_divisor",
    "random_pair",
    "random_klt_pair",
    "random_center",
    "reference_tower",
    "brute_force_zariski",
    "reference_zariski",
    "reference_fano_type_test",
    "LATTICE_GRAM",
    "LATTICE_K",
    "random_lattice_spec",
    "random_lattice_tower",
    "first_negative_pair",
    "first_bad_genus",
    "make_lattice_base",
    "catalog_model",
    "top_level_decomposition",
    "reference_rcc_json",
    "anti_log_canonical",
]


# ---------------------------------------------------------------------------
# model serializer


def serialize_model(loaded: LoadedModel) -> dict:
    """The model document that ``parse_model`` reads back to ``loaded``."""
    model = loaded.model
    base = model.base
    if isinstance(base, pl.ProjectivePlane):
        base_doc = {"kind": "P2"}
    elif isinstance(base, pl.Ruled):
        base_doc = {"kind": "ruled", "genus": base.genus, "e": base.e}
    else:
        base_doc = {
            "kind": "lattice",
            "basis": list(base.basis),
            "gram": [[str(x) for x in row] for row in base.gram],
            "K": [str(x) for x in base.canonical],
            "curves": [
                {"id": c.id, "class": [str(x) for x in c.coeffs],
                 "genus": c.genus}
                for c in base.curves
            ],
        }
    blowups = []
    for c in model.centers:
        doc = {"id": c.exceptional_id}
        if c.on_curves:
            doc["on"] = [
                {"curve": cid, "mult": m} if m != 1 else {"curve": cid}
                for cid, m in c.on_curves
            ]
        if c.near is not None:
            doc["near"] = c.near
        doc["point"] = c.point_label
        blowups.append(doc)
    out = {"version": SCHEMA_VERSION, "base": base_doc}
    if blowups:
        out["blowups"] = blowups
    if loaded.divisors:
        out["divisors"] = {
            name: [{"curve": cid, "coeff": str(v)} for cid, v in terms]
            for name, terms in loaded.divisors.items()
        }
    if loaded.pair is not None:
        level, name = loaded.pair
        pair_doc = {"level": level}
        if name is not None:
            pair_doc["delta"] = name
        out["pair"] = pair_doc
    return out
