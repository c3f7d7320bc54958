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
    coords,
    cubic12_model,
    determinant,
    factor_numbers,
    is_nef_against_catalog,
    make_lattice_base,
    p2,
    random_effective_divisor,
    random_lattice_spec,
    random_lattice_tower,
    random_pair,
    random_rational_lattice_tower,
    random_tower,
    reference_class,
    reference_zariski,
    ruled,
    zariski_scale,
)
from pklt_lab import surface, zariski
from pklt_lab.lattice import LDLFactor
from pklt_lab.potential import anti_log_canonical


def test_anticanonical_on_ruled_2_3():
    m = ruled(2, 3)
    lvl = m.level(0)
    zd = pl.zariski_decompose(m, 0, *pl.integral_class(m, 0, -1))
    assert zd.N.terms == (("C0", Fraction(5, 3)),)
    assert coords(zd.P, lvl.rank) == (Fraction(1, 3), Fraction(1))
    assert pl.intersect(zd.P, zd.P, lvl.form) == Fraction(1, 3)


def test_anticanonical_on_blown_ruled_2_3():
    m = blown_ruled(2, 3)
    zd = pl.zariski_decompose(m, 1, *pl.integral_class(m, 1, -1))
    assert dict(zd.N.terms) == {"C0": Fraction(5, 3), "E1": Fraction(2, 3)}
    # P is the pullback of the positive part downstairs
    down = pl.zariski_decompose(m, 0, *pl.integral_class(m, 0, -1))
    assert zd.P == pl.pull_back(m, 0, 1, down.P)


def test_nef_divisor_has_zero_negative_part():
    m = ruled(0, 2)
    lvl = m.level(0)
    zd = pl.zariski_decompose(m, 0, *pl.integral_class(m, 0, -1))
    assert zd.N.is_zero()
    assert zd.P == reference_class(m, 0, -1)
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
        zd = pl.zariski_decompose(m, 0, *pl.integral_class(m, 0, -1))
        assert dict(zd.N.terms) == terms


def test_not_pseudoeffective_raises_with_message():
    m = ruled(2, 3)
    minus_c0 = pl.integral_class(m, 0, 0, [("C0", -1)])
    with pytest.raises(pl.NotPseudoeffectiveError) as exc:
        pl.zariski_decompose(m, 0, *minus_c0)
    assert "catalog" in str(exc.value)


def test_effective_divisor_is_pseudoeffective():
    m = blown_ruled(2, 3)
    d = pl.integral_class(m, 1, 0, [("C0", 2), ("E1", 1)])
    pl.zariski_decompose(m, 1, *d)  # raises if not pseudoeffective


def test_is_big_examples():
    f2 = ruled(0, 2)
    assert pl.is_big(f2, 0, reference_class(f2, 0, -1))
    m = ruled(2, 3)
    lvl = m.level(0)
    assert pl.is_big(m, 0, reference_class(m, 0, -1))  # P² = 1/3 > 0
    fiber = lvl.curve("f").cls
    assert not pl.is_big(m, 0, fiber)  # nef but f² = 0


def test_nnef_locus():
    m = ruled(2, 3)
    lvl = m.level(0)
    assert pl.zariski_decompose(
        m, 0, *pl.integral_class(m, 0, -1)).N.support == ("C0",)
    assert pl.zariski_decompose(m, 0, lvl.curve("f").cls).N.support == ()


def test_nef_certificate_contents():
    m = ruled(2, 3)
    cert = is_nef_against_catalog(m, 0, reference_class(m, 0, -1))
    assert not cert.nef
    assert cert.violations == (("C0", Fraction(-5)),)
    assert set(cert.tested_curves) == {"C0", "f"}


def test_wrong_level_class_rejected():
    """-K₁ has a term at E1, the coordinate past level 0's rank."""
    m = blown_ruled(2, 3)
    with pytest.raises(ValueError, match="does not live at the requested level"):
        pl.zariski_decompose(m, 0, *pl.integral_class(m, 1, -1))


def test_a_lower_level_class_is_its_own_pullback():
    """A class D of level j is accepted at any level k ≥ j as its own
    pullback: decomposed there it gives the same P and N, or the same
    error, as pull_back(D), which is D itself, and as the per-round
    reference, and D is the class of the total transform f*D, built curve
    by curve at the top."""
    rng = random.Random(18)
    raised = supports = 0
    for _ in range(400):
        m = random_tower(rng)
        j = rng.randrange(0, m.top + 1)
        k = rng.randrange(j, m.top + 1)
        d = pl.RDivisor.make(
            j, {cid: rng.choice(SIGNED_POOL) for cid in m.level(j).classes})
        D = reference_class(m, j, 0, d.terms)
        assert pl.pull_back(m, j, k, D) is D
        assert reference_class(m, m.top, 0, pl.total_transform(m, d).terms) == D
        got = _decomposition_or_error(pl.zariski_decompose, m, k, D)
        assert got == _decomposition_or_error(
            pl.zariski_decompose, m, k, pl.pull_back(m, j, k, D))
        assert got == _decomposition_or_error(reference_zariski, m, k, D)
        raised += len(got) == 2
        supports += len(got) == 3 and j < k and bool(got[1].terms)
    assert raised > 10 and supports > 10, (raised, supports)


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
        cls = reference_class(m, level, 0, d.terms)
        try:
            zd = pl.zariski_decompose(m, level, cls)
        except pl.NotPseudoeffectiveError:
            continue
        up = pl.pull_back(m, level, level + 1, cls)
        zd_up = pl.zariski_decompose(m, level + 1, up)
        assert zd_up.P == pl.pull_back(m, level, level + 1, zd.P)
        assert reference_class(m, level + 1, 0, zd_up.N.terms) == pl.pull_back(
            m, level, level + 1, reference_class(m, level, 0, zd.N.terms)
        )
        checked += 1


def test_matches_brute_force_oracle():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        m = random_tower(rng, max_blowups=3)
        level = rng.randrange(0, m.top + 1)
        d = random_effective_divisor(rng, m, level)
        cls = reference_class(m, level, 0, d.terms)
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
    zd = pl.zariski_decompose(m, 1, *pl.integral_class(m, 1, 0, d.terms))
    assert dict(zd.N.terms) == {"C0": Fraction(5, 3), "E1": Fraction(2, 3)}
    grid = {
        "C0": [Fraction(k, 3) for k in range(0, 7)],
        "f": [Fraction(0), Fraction(1, 2), Fraction(1)],
        "E1": [Fraction(k, 3) for k in range(0, 4)],
    }
    nef_seen = 0
    for c0, f, e1 in itertools.product(grid["C0"], grid["f"], grid["E1"]):
        ell = pl.RDivisor.make(1, {"C0": c0, "f": f, "E1": e1})
        if not is_nef_against_catalog(m, 1, reference_class(m, 1, 0, ell.terms)).nef:
            continue
        nef_seen += 1
        rest = dict(d.terms)
        for cid, c in ell.terms:
            rest[cid] = rest.get(cid, 0) - c
        assert all(rest.get(cid, 0) >= c for cid, c in zd.N.terms)
    assert nef_seen > 1  # the grid did exercise nonzero nef subdivisors


def test_decomposition_fixed_point_properties_fuzzed():
    rng = random.Random(5)
    for _ in range(40):
        m = random_tower(rng)
        level = rng.randrange(0, m.top + 1)
        d = random_effective_divisor(rng, m, level)
        lvl = m.level(level)
        try:
            zd = pl.zariski_decompose(m, level, *pl.integral_class(m, level, 0, d.terms))
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
            cls = reference_class(m, level, 1)
        elif roll < 0.4:
            cls = reference_class(m, level, -1)
        else:
            cls = reference_class(m, level, 0, [
                (cid, rng.choice(SIGNED_POOL)) for cid in lvl.classes])
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


def _rational_lattice_cases(rng, count):
    """random_rational_lattice_tower levels with −K or a class of signed
    rational coefficients on the catalog."""
    for _ in range(count):
        m = random_rational_lattice_tower(rng)
        level = rng.randrange(0, m.top + 1)
        lvl = m.level(level)
        if rng.random() < 0.3:
            cls = reference_class(m, level, -1)
        else:
            cls = reference_class(m, level, 0, [
                (cid, rng.choice(SIGNED_POOL)) for cid in lvl.classes])
        yield m, level, cls


def test_rational_lattices_match_the_per_round_reference():
    """On catalogs of rational classes on a rational form the factor solves
    c·gram(S)·x′ = c·(Dn·C) in ints, with the one scale c = Γ·δ² of the
    base lattice's denominators, and reads x off x′: the same
    decomposition, or the same error, as the reference's Fraction solve."""
    rng = random.Random(36)
    cases = list(_rational_lattice_cases(rng, 800))
    assert sum(zariski_scale(m) > 1 for m, _, _ in cases) > 400
    details = _assert_matches_reference(cases)
    assert set(details) == NOT_PSEF_DETAILS, details
    supports = 0
    for m, level, cls in cases:
        try:
            supports += bool(pl.zariski_decompose(m, level, cls).N.terms)
        except pl.NotPseudoeffectiveError:
            pass
    assert supports > 200


def test_make_base_scale_clears_self_intersections():
    """The solve's scale c = Γ·δ² clears the denominators of every Cᵢ·Cⱼ
    of the catalog, squares included: a lone curve A with A² = −1/2 gives
    c = 2, whose rows are ints at the base and after a blow-up on A
    (Ã² = −3/2, Ã·E = 1).  The solve on that scale finds N = A for H + A."""
    spec = pl.AbstractLattice(("H", "A"), ((2, 0), (0, Fraction(-1, 2))),
                              (-3, -1), (pl.CurveSpec("A", (0, 1), 0),))
    m = pl.make_base(spec)
    assert zariski_scale(ruled(2, 3)) == zariski_scale(p2()) == 1
    rows = []
    for tower in (m, pl.blow_up(m, [pl.BlowUpCenter((("A", 1),))])):
        lvl = tower.level(tower.top)
        classes = list(lvl.classes.values())
        row = zariski.intersection_rows(classes, lvl.form, zariski_scale(tower))
        rows.append([row(i) for i in range(len(classes))])
    assert rows == [[{0: -1}], [{0: -3, 1: 2}, {0: 2, 1: -2}]]
    D = pl.DivisorClass.dense((1, 1), m.level(0).form.lattice_id)
    zd = pl.zariski_decompose(m, 0, D)
    assert (zd.N.terms, coords(zd.P, 2), zd.big) == ((("A", 1),), (1, 0), True)
    assert _decomposition_or_error(reference_zariski, m, 0, D) == (
        zd.P, zd.N, zd.big)


def test_big_is_p_squared_positive():
    """``big`` is read as D² − Σ xₖ·(D·Cₖ) in ints, without P²; it equals
    P² > 0 on random towers (signed rational classes, so rational Δ), on
    random pairs' −(K+Δ) at the top, and on the rational lattices.  The
    pair (P², 3L), whose −(K+Δ) is 0, is not big and has N = 0."""
    rng = random.Random(2009)
    cases = [*_tower_cases(rng, 600), *_rational_lattice_cases(rng, 600)]
    seen = collections.Counter()
    for m, level, cls in cases:
        try:
            zd = pl.zariski_decompose(m, level, cls)
        except pl.NotPseudoeffectiveError:
            continue
        p_squared = pl.intersect(zd.P, zd.P, m.level(level).form)
        assert zd.big == (p_squared > 0)
        seen[zd.big, bool(zd.N.terms), zariski_scale(m) > 1] += 1
    for _ in range(200):
        pair = random_pair(rng)
        zd = pair.decomposition
        p_squared = pl.intersect(zd.P, zd.P, pair.model.level(zd.level).form)
        assert zd.big == (p_squared > 0)
        seen[zd.big, bool(zd.N.terms), "pair"] += 1
    zd = pl.make_pair(p2(), 0, pl.RDivisor.make(0, {"L": 3})).decomposition
    assert (zd.P.terms, zd.N.terms, zd.big) == ({}, (), False)  # −(K+3L) = 0
    seen[zd.big, bool(zd.N.terms), "pair"] += 1
    kinds = (False, True, "pair")  # c = 1, c > 1, a pair's −(K+Δ)
    assert set(seen) == set(itertools.product((True, False), (True, False),
                                              kinds)), seen


@pytest.mark.parametrize("level, pivots, det", [(2, [-1, 0], 1), (1, [0], -1)])
def test_dense_branch_names_what_the_factor_cannot(level, pivots, det):
    """P² blown up at two points of L, D = K: the factor meets a zero pivot
    (L̃² = 0 at level 1), yet gram(S) is nonsingular, so the dense solve
    finds a negative coefficient in N where a factor-only solve would call
    the configuration singular."""
    m = pl.blow_up(p2(), [pl.BlowUpCenter((("L", 1),))] * 2)
    lvl = m.level(level)
    K = reference_class(m, level, 1)
    S = [c for c in lvl.classes.values() if pl.intersect(K, c, lvl.form) < 0]
    gram = pl.gram_submatrix(S, lvl.form)
    factor = LDLFactor([pl.intersect(K, c, lvl.form) for c in S])
    for k, row in enumerate(gram):
        if factor.extend(k, {j: v for j, v in enumerate(row) if v}) >= 0:
            break
    d = factor.minors  # the pivots are the ratios of consecutive minors
    assert [Fraction(a, b) for a, b in zip(d[1:], d)] == pivots
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
    minus_k = pl.integral_class(m, m.top, -1)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return pl.intersect(*args)

    monkeypatch.setattr(zariski, "intersect", counting)
    zd = pl.zariski_decompose(m, m.top, *minus_k)
    assert len(zd.N.support) == n
    assert calls <= 4 * n + 3


@pytest.mark.parametrize("n", [48, 96, 192])
def test_chain_decomposition_does_linear_work(n, monkeypatch):
    """The bordered factor keeps P·C of the touched curves off S, so one
    decomposition of −K on the chain back-substitutes once, after the last
    round, and computes O(n) border entries in all (2n: one for f and one
    for the next curve of the chain per joining curve)."""
    m = chain_model(n)
    minus_k = pl.integral_class(m, m.top, -1)
    factors = []
    solve = pl.lattice.LDLFactor.solve

    def counting(self):
        factors.append(self)
        return solve(self)

    monkeypatch.setattr(pl.lattice.LDLFactor, "solve", counting)
    zd = pl.zariski_decompose(m, m.top, *minus_k)
    assert len(zd.N.support) == n
    assert len(factors) == 1
    assert sum(len(keys) for keys in factors[0]._reach) <= 3 * n


@pytest.mark.parametrize("n", [48, 96, 192, 384])
def test_chain_factor_holds_small_ints(n, monkeypatch):
    """A fraction-free factor stores minors of gram(S), which may grow with
    the support.  On the chain every stored number, X and q of the solve,
    and each numerator and denominator the read-out of x and P divides, is
    an int of at most bit_length(n) + 3 bits (9 to 12 bits, 3 or 4
    digits, for n = 48 to 384): |Δₖ| grows linearly in k here."""
    m = chain_model(n)
    factors, divided = [], []
    solve = pl.lattice.LDLFactor.solve

    def keeping(self):
        factors.append(self)
        return solve(self)

    def dividing(p, q):
        divided.extend((p, q))
        return pl.lattice.quotient(p, q)

    monkeypatch.setattr(pl.lattice.LDLFactor, "solve", keeping)
    monkeypatch.setattr(zariski, "quotient", dividing)
    zd = pl.zariski_decompose(m, m.top, *pl.integral_class(m, m.top, -1))
    assert len(zd.N.support) == n and len(factors) == 1
    X, q = solve(factors[0])
    assert len(divided) == 2 * (n + len(zd.P.terms))
    numbers = [*factor_numbers(factors[0]), *X, q, *divided]
    assert all(type(v) is int for v in numbers)
    assert max(abs(v) for v in numbers).bit_length() <= n.bit_length() + 3


def test_fixed_point_check_names_the_curves(monkeypatch):
    """A back-substituted x that does not solve gram(S)·x = D·C, as a
    bookkeeping slip in the factor would give, is caught by the one pass
    after the loop: a raise, so it holds under ``python -O`` as well."""
    m = blown_ruled(2, 3)
    solve = pl.lattice.LDLFactor.solve

    def off_by_one(self):  # x = X/q, so the last xₖ gains 1
        X, q = solve(self)
        return X[:-1] + [X[-1] + q], q

    monkeypatch.setattr(pl.lattice.LDLFactor, "solve", off_by_one)
    with pytest.raises(pl.InvariantViolation) as exc:
        pl.zariski_decompose(m, 1, *pl.integral_class(m, 1, -1))
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
    rng = random.Random(1413)
    towers += [random_rational_lattice_tower(rng) for _ in range(100)]
    assert sum(zariski_scale(m) > 1 for m in towers) > 50
    nonzero = 0
    for m in towers:
        scale = zariski_scale(m)
        for lvl in m.levels:
            classes, form = list(lvl.classes.values()), lvl.form
            row = zariski.intersection_rows(classes, form, scale)
            for i, ci in enumerate(classes):
                dense = {
                    j: scale * v for j, c in enumerate(classes)
                    if (v := pl.intersect(ci, c, form))
                }
                assert row(i) == dense
                assert all(type(v) is int for v in row(i).values())
                nonzero += len(dense)
    assert nonzero > 1000


def _integral_catalog_cases(rng, count):
    """Levels of random P², ruled and integral lattice towers, each with −K
    or a class of signed rational coefficients on the catalog."""
    for _ in range(count):
        m = random_tower(rng) if rng.random() < 0.5 else None
        while m is None:  # a draw that make_base rejects
            m = random_lattice_tower(rng)
        level = rng.randrange(0, m.top + 1)
        lvl = m.level(level)
        if rng.random() < 0.3:
            yield m, level, reference_class(m, level, -1)
        else:
            yield m, level, reference_class(m, level, 0, [
                (cid, rng.choice(SIGNED_POOL)) for cid in lvl.classes])


def _rational_pair_cases(rng, count):
    """Random pairs with a rational Δ, as (model, pair level, −(K+Δ))."""
    for _ in range(count):
        pair = random_pair(rng)
        if any(type(v) is not int for _, v in pair.delta.terms):
            yield pair.model, pair.level, anti_log_canonical(pair)


def test_solve_intersects_only_integral_classes(monkeypatch):
    """The solve scales D by the lcm e of its denominators before any
    product, so on an integral catalog every intersect it makes (D·C, the
    rows, D²) takes two classes of int coefficients, for a rational D or
    Δ too: on P², ruled and integral lattice towers, on random pairs'
    −(K+Δ), and on the chain."""
    seen = []

    def spying(a, b, form):
        seen.append((a, b))
        return pl.intersect(a, b, form)

    rng = random.Random(20)
    cases = [*_integral_catalog_cases(rng, 600),
             *_rational_pair_cases(rng, 200)]
    m = chain_model(48)
    cases.append((m, m.top, reference_class(m, m.top, -1)))
    rational = sum(any(type(v) is not int for v in cls.terms.values())
                   for _, _, cls in cases)
    lattices = sum(isinstance(m.base, pl.AbstractLattice) for m, _, _ in cases)
    assert rational > 200 and lattices > 200, (rational, lattices)
    monkeypatch.setattr(zariski, "intersect", spying)
    supports = 0
    for m, level, cls in cases:
        got = _decomposition_or_error(pl.zariski_decompose, m, level, cls)
        supports += len(got) == 3 and bool(got[1].terms)
    assert supports > 200
    assert all(type(v) is int for pair in seen for c in pair
               for v in c.terms.values())


def test_decomposition_of_a_scaled_class_over_its_scale():
    """zariski_decompose(model, level, e·D, e) is the decomposition of D,
    or the same error: P, N and big agree for e in 2, 3, 6 and 35, on the
    integral catalog cases and the random pairs' −(K+Δ) of
    ``test_solve_intersects_only_integral_classes``, on rational-lattice
    towers with −K or a class of signed coefficients, and on the chain."""
    rng = random.Random(28)
    cases = [*_integral_catalog_cases(rng, 300),
             *_rational_pair_cases(rng, 100)]
    for _ in range(100):
        m = random_rational_lattice_tower(rng)
        lvl = m.level(rng.randrange(0, m.top + 1))
        cls = reference_class(m, lvl.k, 0, [
            (cid, rng.choice(SIGNED_POOL)) for cid in lvl.classes]
        ) if rng.random() < 0.7 else reference_class(m, lvl.k, -1)
        cases.append((m, lvl.k, cls))
    m = chain_model(24)
    cases.append((m, m.top, reference_class(m, m.top, -1)))
    supports = 0
    for m, level, D in cases:
        want = _decomposition_or_error(pl.zariski_decompose, m, level, D)
        supports += len(want) == 3 and bool(want[1].terms)
        for e in (2, 3, 6, 35):
            got = _decomposition_or_error(
                lambda m, level, D: pl.zariski_decompose(m, level, D._replace(
                    terms={i: e * v for i, v in D.terms.items()}), e),
                m, level, D)
            assert got == want, (m, level, D, e)
    assert supports > 100, supports


@pytest.mark.parametrize("n", [24, 48, 96, 192, 384])
def test_read_out_divides_once_per_printed_coefficient(n, monkeypatch):
    """x and P are read off the Cramer numerators in ints: one quotient
    per coefficient of N and per nonzero coordinate of P, on the chain and
    on random pairs' −(K+Δ) with a rational Δ."""
    calls = 0

    def counting(p, q):
        nonlocal calls
        calls += 1
        return pl.lattice.quotient(p, q)

    m = chain_model(n)
    cases = [(m, m.top, reference_class(m, m.top, -1))]
    cases += _rational_pair_cases(random.Random(n), 60)
    assert len(cases) > 20
    monkeypatch.setattr(zariski, "quotient", counting)
    for m, level, cls in cases:
        calls = 0
        zd = pl.zariski_decompose(m, level, cls)
        assert calls == len(zd.N.terms) + len(zd.P.terms)


def test_p_and_n_are_canonical():
    """Every coefficient of P and N is an int, or a Fraction that is not
    integral, on the rational lattices and on random pairs (at the pair
    level and pulled back to the top)."""
    rng = random.Random(37)
    decompositions = []
    for m, level, cls in _rational_lattice_cases(rng, 400):
        got = _decomposition_or_error(pl.zariski_decompose, m, level, cls)
        if len(got) == 3:
            decompositions.append(got)
    for _ in range(200):
        pair = random_pair(rng)
        zd = pair.decomposition
        decompositions.append((zd.P, zd.N))
        low = pl.zariski_decompose(pair.model, pair.level,
                                   anti_log_canonical(pair))
        decompositions.append((low.P, low.N))
    numbers = [v for P, N, *_ in decompositions
               for v in (*P.terms.values(), *(c for _, c in N.terms))]
    assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in numbers)
    assert sum(type(v) is Fraction for v in numbers) > 200


def test_zariski_decompose_builds_no_curve(monkeypatch):
    """The solve reads ids and classes off Level.classes, so it builds no
    Curve view, at any level of the infinitely-near chain or of random
    pairs."""
    built = []
    new = surface.Curve.__new__

    def spy(cls, *args):
        built.append(args[0])
        return new(cls, *args)

    rng = random.Random(2121)
    pairs = [random_pair(rng) for _ in range(100)]
    cases = [(m, k, reference_class(m, k, -1))
             for m in (chain_model(24), chain_model(48))
             for k in range(m.top + 1)]
    cases += [(p.model, p.level, anti_log_canonical(p)) for p in pairs]
    m = blown_ruled(2, 3)
    monkeypatch.setattr(surface.Curve, "__new__", spy)
    assert m.level(0).curve("C0").level == 0
    assert built == ["C0"]  # the spy sees a view being built
    cut = 0
    for m, k, D in cases:
        built.clear()
        try:
            pl.zariski_decompose(m, k, D)
        except pl.NotPseudoeffectiveError:
            pass
        assert built == [], (m, k)
        cut += any(c.level > k for c in m.curves.values())
    assert cut > 50
