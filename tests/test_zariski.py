import itertools
import random
from fractions import Fraction

import pytest

import pklt_lab as pl
from conftest import (
    blown_ruled,
    brute_force_zariski,
    p2,
    random_effective_divisor,
    random_tower,
    reference_zariski,
    ruled,
)


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
    assert not pl.is_pseudoeffective(m, 0, minus_c0)


def test_effective_divisor_is_pseudoeffective():
    m = blown_ruled(2, 3)
    d = pl.RDivisor.make(1, {"C0": 2, "E1": 1}).class_at(m)
    assert pl.is_pseudoeffective(m, 1, d)


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
    assert pl.nnef_locus(m, 0, -lvl.canonical) == ["C0"]
    assert pl.nnef_locus(m, 0, lvl.curve("f").cls) == []
    minus_c0 = lvl.curve("C0").cls.scale(-1)
    assert pl.nnef_locus(m, 0, minus_c0) is pl.ENTIRE_SURFACE


def test_nef_certificate_contents():
    m = ruled(2, 3)
    lvl = m.level(0)
    cert = pl.is_nef_against_catalog(m, 0, -lvl.canonical)
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
        if not pl.is_nef_against_catalog(m, 1, ell.class_at(m)).nef:
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
        assert zd.nef_certificate.nef
        for cid in zd.N.support:
            assert pl.intersect(zd.P, lvl.curve(cid).cls, lvl.form) == 0
        if zd.N.support:
            assert pl.is_negative_definite(
                [list(row) for row in zd.gram]
            )


def _decomposition_or_error(decompose, model, level, cls):
    try:
        zd = decompose(model, level, cls)
    except pl.NotPseudoeffectiveError as exc:
        return type(exc), str(exc)
    return zd.P, zd.N, zd.support, zd.gram, zd.nef_certificate


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


def _lattice_cases(rng, count):
    """Rank-3 lattices with gram diag(1, -1, -1) and random small integer
    curve classes, where supports are often indefinite."""
    gram = ((Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(-1)))

    def small():
        return tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))

    for _ in range(count):
        curves = tuple(
            pl.CurveSpec(f"C{i}", small(), 0)
            for i in range(rng.randint(1, 5))
        )
        base = pl.AbstractLattice(("H", "A", "B"), gram,
                                  (Fraction(-3), Fraction(1), Fraction(1)),
                                  curves)
        m = pl.make_base(base)
        yield m, 0, pl.DivisorClass(small(), m.level(0).form.lattice_id)


def test_incremental_factor_matches_per_round_reference():
    rng = random.Random(2009)
    towers = _assert_matches_reference(_tower_cases(rng, 2000))
    lattices = _assert_matches_reference(_lattice_cases(rng, 2000))
    seen = set(towers) | set(lattices)
    assert seen == NOT_PSEF_DETAILS, (towers, lattices)
