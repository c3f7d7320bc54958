import collections
import itertools
import random
from fractions import Fraction

import pytest

import pklt_lab as pl
from conftest import (
    blown_ruled,
    brute_force_zariski,
    catalog_model,
    chain_model,
    cubic12_model,
    determinant,
    is_nef_against_catalog,
    make_lattice_base,
    p2,
    random_effective_divisor,
    random_lattice_spec,
    random_lattice_tower,
    random_tower,
    reference_zariski,
    ruled,
)
from pklt_lab import zariski
from pklt_lab.lattice import LDLFactor


def test_anticanonical_on_ruled_2_3():
    m = ruled(2, 3)
    lvl = m.level(0)
    zd = pl.zariski_decompose(m, 0, -lvl.canonical)
    assert zd.N.terms == (("C0", Fraction(5, 3)),)
    assert zd.P.coeffs == (Fraction(1, 3), Fraction(1))
    assert pl.intersect(zd.P, zd.P, lvl.form) == Fraction(1, 3)


def test_anticanonical_on_blown_ruled_2_3():
    m = blown_ruled(2, 3)
    lvl = m.level(1)
    zd = pl.zariski_decompose(m, 1, -lvl.canonical)
    assert dict(zd.N.terms) == {"C0": Fraction(5, 3), "E1": Fraction(2, 3)}
    # P is the pullback of the positive part downstairs
    down = pl.zariski_decompose(m, 0, -m.level(0).canonical)
    assert zd.P == pl.pull_back(m, 0, 1, down.P)


def test_nef_divisor_has_zero_negative_part():
    m = ruled(0, 2)
    lvl = m.level(0)
    zd = pl.zariski_decompose(m, 0, -lvl.canonical)
    assert zd.N.is_zero()
    assert zd.P == -lvl.canonical
    assert pl.intersect(zd.P, zd.P, lvl.form) == 8


def test_hirzebruch_battery():
    expected = {
        1: {},
        2: {},
        3: {"C0": Fraction(1, 3)},
        5: {"C0": Fraction(3, 5)},
    }
    for e, terms in expected.items():
        m = ruled(0, e)
        zd = pl.zariski_decompose(m, 0, -m.level(0).canonical)
        assert dict(zd.N.terms) == terms


def test_not_pseudoeffective_raises_with_message():
    m = ruled(2, 3)
    minus_c0 = m.level(0).curve("C0").cls.scale(-1)
    with pytest.raises(pl.NotPseudoeffectiveError) as exc:
        pl.zariski_decompose(m, 0, minus_c0)
    assert "catalog" in str(exc.value)


def test_effective_divisor_is_pseudoeffective():
    m = blown_ruled(2, 3)
    d = pl.RDivisor.make(1, {"C0": 2, "E1": 1}).class_at(m)
    pl.zariski_decompose(m, 1, d)  # raises if not pseudoeffective


def test_is_big_examples():
    f2 = ruled(0, 2)
    assert pl.is_big(f2, 0, -f2.level(0).canonical)
    m = ruled(2, 3)
    lvl = m.level(0)
    assert pl.is_big(m, 0, -lvl.canonical)  # P² = 1/3 > 0
    fiber = lvl.curve("f").cls
    assert not pl.is_big(m, 0, fiber)  # nef but f² = 0


def test_nnef_locus():
    m = ruled(2, 3)
    lvl = m.level(0)
    assert pl.zariski_decompose(m, 0, -lvl.canonical).N.support == ("C0",)
    assert pl.zariski_decompose(m, 0, lvl.curve("f").cls).N.support == ()


def test_nef_certificate_contents():
    m = ruled(2, 3)
    lvl = m.level(0)
    cert = is_nef_against_catalog(m, 0, -lvl.canonical)
    assert not cert.nef
    assert cert.violations == (("C0", Fraction(-5)),)
    assert set(cert.tested_curves) == {"C0", "f"}


def test_wrong_level_class_rejected():
    m = blown_ruled(2, 3)
    k0 = m.level(0).canonical
    with pytest.raises(ValueError):
        pl.zariski_decompose(m, 1, k0)


def test_pullback_invariance_of_decomposition():
    """N(π*D) = π*N(D) as classes and P(π*D) = π*P(D)."""
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        m = random_tower(rng)
        if m.top == 0:
            continue
        level = rng.randrange(0, m.top)
        d = random_effective_divisor(rng, m, level)
        cls = d.class_at(m)
        try:
            zd = pl.zariski_decompose(m, level, cls)
        except pl.NotPseudoeffectiveError:
            continue
        up = pl.pull_back(m, level, level + 1, cls)
        zd_up = pl.zariski_decompose(m, level + 1, up)
        assert zd_up.P == pl.pull_back(m, level, level + 1, zd.P)
        assert zd_up.N.class_at(m) == pl.pull_back(
            m, level, level + 1, zd.N.class_at(m)
        )
        checked += 1


def test_matches_brute_force_oracle():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        m = random_tower(rng, max_blowups=3)
        level = rng.randrange(0, m.top + 1)
        d = random_effective_divisor(rng, m, level)
        cls = d.class_at(m)
        survivors = brute_force_zariski(m, level, cls)
        try:
            zd = pl.zariski_decompose(m, level, cls)
        except pl.NotPseudoeffectiveError:
            assert survivors == []
            continue
        assert len(survivors) == 1
        support, coeffs = survivors[0]
        assert support == set(zd.N.support)
        assert coeffs == dict(zd.N.terms)
        checked += 1
    assert checked == 60


def test_maximality_of_positive_part():
    """Zariski maximality: any catalog-nef 0 <= L <= D has D - L >= N."""
    m = blown_ruled(2, 3)
    # effective representation of -K on the blow-up: 2C0~ + f~ + E1
    d = pl.RDivisor.make(1, {"C0": 2, "f": 1, "E1": 1})
    zd = pl.zariski_decompose(m, 1, d.class_at(m))
    assert dict(zd.N.terms) == {"C0": Fraction(5, 3), "E1": Fraction(2, 3)}
    grid = {
        "C0": [Fraction(k, 3) for k in range(0, 7)],
        "f": [Fraction(0), Fraction(1, 2), Fraction(1)],
        "E1": [Fraction(k, 3) for k in range(0, 4)],
    }
    nef_seen = 0
    for c0, f, e1 in itertools.product(grid["C0"], grid["f"], grid["E1"]):
        ell = pl.RDivisor.make(1, {"C0": c0, "f": f, "E1": e1})
        if not is_nef_against_catalog(m, 1, ell.class_at(m)).nef:
            continue
        nef_seen += 1
        rest = d + ell.scale(-1)
        assert all(
            rest.coeff(cid) >= zd.N.coeff(cid) for cid in zd.N.support
        )
    assert nef_seen > 1  # the grid did exercise nonzero nef subdivisors


def test_decomposition_fixed_point_properties_fuzzed():
    rng = random.Random(5)
    for _ in range(40):
        m = random_tower(rng)
        level = rng.randrange(0, m.top + 1)
        d = random_effective_divisor(rng, m, level)
        lvl = m.level(level)
        try:
            zd = pl.zariski_decompose(m, level, d.class_at(m))
        except pl.NotPseudoeffectiveError:
            continue
        assert zd.N.is_effective()
        assert is_nef_against_catalog(m, level, zd.P).nef
        for cid in zd.N.support:
            assert pl.intersect(zd.P, lvl.curve(cid).cls, lvl.form) == 0
        if zd.N.support:
            assert pl.is_negative_definite(pl.gram_submatrix(
                [lvl.curve(cid).cls for cid in zd.N.support], lvl.form
            ))


def _decomposition_or_error(decompose, model, level, cls):
    try:
        zd = decompose(model, level, cls)
    except pl.NotPseudoeffectiveError as exc:
        return type(exc), str(exc)
    assert is_nef_against_catalog(model, level, zd.P).nef
    return zd.P, zd.N, zd.big


SIGNED_POOL = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
               Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
               Fraction(2), Fraction(3)]
NOT_PSEF_DETAILS = {
    "singular curve configuration",
    "negative coefficient in N",
    "support Gram matrix not negative definite",
}


def _assert_matches_reference(cases):
    """zariski_decompose equals the per-round reference on every case;
    returns how often each NotPseudoeffectiveError detail occurred."""
    details = {}
    for model, level, cls in cases:
        got = _decomposition_or_error(pl.zariski_decompose, model, level, cls)
        want = _decomposition_or_error(reference_zariski, model, level, cls)
        assert got == want
        if want[0] is pl.NotPseudoeffectiveError:
            detail = want[1][want[1].index("(") + 1:-1]
            details[detail] = details.get(detail, 0) + 1
    return details


def _tower_cases(rng, count):
    for _ in range(count):
        m = random_tower(rng)
        level = rng.randrange(0, m.top + 1)
        lvl = m.level(level)
        roll = rng.random()
        if roll < 0.2:
            cls = lvl.canonical
        elif roll < 0.4:
            cls = -lvl.canonical
        else:
            cls = pl.RDivisor.make(
                level, {c.id: rng.choice(SIGNED_POOL) for c in lvl.curves}
            ).class_at(m)
        yield m, level, cls


def _lattice_cases(rng, count, kinds):
    """random_lattice_spec bases with a random small integer class, where
    supports are often indefinite.  A catalog with a negative pair, which
    make_base rejects (checked by make_lattice_base), still goes to the
    catalog-relative solver, as catalog_model's test-only model; ``kinds``
    counts the draws that make_base accepts and rejects."""
    for _ in range(count):
        spec = random_lattice_spec(rng)
        m = make_lattice_base(spec)
        kinds["rejected" if m is None else "accepted"] += 1
        if m is None:
            m = catalog_model(spec)
        coeffs = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        yield m, 0, pl.DivisorClass.dense(coeffs, m.level(0).form.lattice_id)


def test_incremental_factor_matches_per_round_reference():
    rng = random.Random(2009)
    kinds = collections.Counter()
    towers = _assert_matches_reference(_tower_cases(rng, 2000))
    lattices = _assert_matches_reference(_lattice_cases(rng, 2000, kinds))
    seen = set(towers) | set(lattices)
    assert seen == NOT_PSEF_DETAILS, (towers, lattices)
    assert kinds["accepted"] and kinds["rejected"]


@pytest.mark.parametrize("level, pivots, det", [(2, [-1, 0], 1), (1, [0], -1)])
def test_dense_branch_names_what_the_factor_cannot(level, pivots, det):
    """P² blown up at two points of L, D = K: the factor meets a zero pivot
    (L̃² = 0 at level 1), yet gram(S) is nonsingular, so the dense solve
    finds a negative coefficient in N where a factor-only solve would call
    the configuration singular."""
    m = pl.blow_up(p2(), [pl.BlowUpCenter((("L", 1),))] * 2)
    lvl = m.level(level)
    K = lvl.canonical
    S = [c for c in lvl.curves if pl.intersect(K, c.cls, lvl.form) < 0]
    gram = pl.gram_submatrix([c.cls for c in S], lvl.form)
    factor = LDLFactor([pl.intersect(K, c.cls, lvl.form) for c in S])
    for k, row in enumerate(gram):
        if factor.extend(k, {j: v for j, v in enumerate(row) if v}) >= 0:
            break
    assert factor.pivots == pivots
    assert determinant(gram) == det
    with pytest.raises(pl.NotPseudoeffectiveError,
                       match=r"\(negative coefficient in N\)$"):
        pl.zariski_decompose(m, level, K)


@pytest.mark.parametrize("n", [24, 48, 96])
def test_chain_rows_intersect_only_neighbouring_curves(n, monkeypatch):
    """On the infinitely-near chain a joining curve meets at most two other
    catalog curves, so the coordinate index keeps its row O(1): one
    intersect per curve for D·C, about three per joining curve, one for P²."""
    m = chain_model(n)
    minus_k = -m.level(m.top).canonical
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return pl.intersect(*args)

    monkeypatch.setattr(zariski, "intersect", counting)
    zd = pl.zariski_decompose(m, m.top, minus_k)
    assert len(zd.N.support) == n
    assert calls <= 4 * n + 3


@pytest.mark.parametrize("n", [48, 96, 192])
def test_chain_decomposition_does_linear_work(n, monkeypatch):
    """The bordered factor keeps P·C of the touched curves off S, so one
    decomposition of −K on the chain back-substitutes once, after the last
    round, and computes O(n) border entries in all (2n: one for f and one
    for the next curve of the chain per joining curve)."""
    m = chain_model(n)
    minus_k = -m.level(m.top).canonical
    factors = []
    solve = pl.lattice.LDLFactor.solve

    def counting(self):
        factors.append(self)
        return solve(self)

    monkeypatch.setattr(pl.lattice.LDLFactor, "solve", counting)
    zd = pl.zariski_decompose(m, m.top, minus_k)
    assert len(zd.N.support) == n
    assert len(factors) == 1
    assert sum(len(keys) for keys in factors[0]._reach) <= 3 * n


def test_fixed_point_check_names_the_curves(monkeypatch):
    """A back-substituted x that does not solve gram(S)·x = D·C, as a
    bookkeeping slip in the factor would give, is caught by the one pass
    after the loop: a raise, so it holds under ``python -O`` as well."""
    m = blown_ruled(2, 3)
    solve = pl.lattice.LDLFactor.solve

    def off_by_one(self):
        x = solve(self)
        return x[:-1] + [x[-1] + 1]

    monkeypatch.setattr(pl.lattice.LDLFactor, "solve", off_by_one)
    with pytest.raises(pl.InvariantViolation) as exc:
        pl.zariski_decompose(m, 1, -m.level(1).canonical)
    assert exc.value.invariant == "zariski-fixed-point"
    assert exc.value.detail == (
        "P·C ≠ 0 on Supp N at C0, E1; P·C < 0 off it at no curve"
    )
    assert pl.potential.InvariantViolation is zariski.InvariantViolation


def test_index_rows_equal_the_dense_rows():
    rng = random.Random(5)  # the towers of test_every_level_matches_the_dense_reference
    towers = [random_tower(rng) for _ in range(60)]
    towers += [cubic12_model(), chain_model(24)]
    rng = random.Random(1412)
    lattices = [random_lattice_tower(rng) for _ in range(200)]
    assert None in lattices and lattices.count(None) < len(lattices)
    towers += [m for m in lattices if m is not None]
    nonzero = 0
    for m in towers:
        for lvl in m.levels:
            curves, form = lvl.curves, lvl.form
            row = zariski.intersection_rows(curves, form)
            for i, ci in enumerate(curves):
                dense = {
                    j: v for j, c in enumerate(curves)
                    if (v := pl.intersect(ci.cls, c.cls, form))
                }
                assert row(i) == dense
                nonzero += len(dense)
    assert nonzero > 1000
