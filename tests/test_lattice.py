import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import pklt_lab as pl
from pklt_lab.lattice import (
    DivisorClass,
    IntersectionForm,
    LDLFactor,
    basis_class,
    signature,
)


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


RULED_23 = IntersectionForm(
    "r", ((Fraction(-3), Fraction(1)), (Fraction(1), Fraction(0)))
)


def cls(*coeffs, lat="r"):
    return DivisorClass(tuple(Fraction(c) for c in coeffs), lat)


def test_intersect_unit_class_on_p2():
    form = IntersectionForm("p2", ((Fraction(1),),))
    L = basis_class(0, 1, "p2")
    assert pl.intersect(L, L, form) == 1


def test_intersect_negative_section():
    c0 = cls(1, 0)
    assert pl.intersect(c0, c0, RULED_23) == -3


def test_intersect_anticanonical_against_section():
    antik = cls(2, 1)
    c0 = cls(1, 0)
    assert pl.intersect(antik, c0, RULED_23) == -5


def test_intersect_lattice_mismatch_names_both():
    form = IntersectionForm("p2", ((Fraction(1),),))
    with pytest.raises(pl.LatticeMismatchError) as exc:
        pl.intersect(basis_class(0, 1, "p2"), cls(1, 0), form)
    assert "p2" in str(exc.value) and "r" in str(exc.value)


def test_gram_submatrix_single():
    assert pl.gram_submatrix([cls(1, 0)], RULED_23) == [[-3]]


def test_gram_submatrix_blown_up_section():
    form = IntersectionForm(
        "r1",
        (
            (Fraction(-3), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(-1)),
        ),
    )
    c0t = cls(1, 0, -1, lat="r1")
    e = cls(0, 0, 1, lat="r1")
    assert pl.gram_submatrix([c0t, e], form) == [[-4, 1], [1, -1]]


def test_gram_submatrix_empty_list_errors():
    with pytest.raises(ValueError):
        pl.gram_submatrix([], RULED_23)


@pytest.mark.parametrize(
    "m,expected",
    [
        ([[-3]], True),
        ([[-4, 1], [1, -1]], True),
        ([[-1, 2], [2, -1]], False),
        ([[1]], False),
        ([[0]], False),
        ([[-2, 0], [0, 0]], False),
    ],
)
def test_is_negative_definite(m, expected):
    m = [[Fraction(x) for x in row] for row in m]
    assert pl.is_negative_definite(m) is expected


def test_is_negative_definite_rejects_asymmetric():
    with pytest.raises(ValueError):
        pl.is_negative_definite([[Fraction(-1), Fraction(2)],
                                 [Fraction(0), Fraction(-1)]])


def test_solve_exact_known_values():
    assert pl.solve_exact([[Fraction(-3)]], [Fraction(-5)]) == [Fraction(5, 3)]
    m = [[Fraction(-4), Fraction(1)], [Fraction(1), Fraction(-1)]]
    assert pl.solve_exact(m, [Fraction(-6), Fraction(1)]) == [
        Fraction(5, 3),
        Fraction(2, 3),
    ]


def test_solve_exact_identity():
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    rhs = [Fraction(7, 2), Fraction(-1, 3)]
    assert pl.solve_exact(ident, rhs) == rhs


def test_solve_exact_singular_errors():
    with pytest.raises(pl.SingularMatrixError):
        pl.solve_exact([[Fraction(1), Fraction(1)],
                        [Fraction(2), Fraction(2)]],
                       [Fraction(0), Fraction(1)])


small_rats = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@given(small_rats, small_rats, small_rats, small_rats, small_rats,
       small_rats, small_rats)
def test_intersect_bilinear_symmetric(r, a0, a1, b0, b1, c0, c1):
    a, b, c = cls(a0, a1), cls(b0, b1), cls(c0, c1)
    lhs = pl.intersect(a.scale(r) + b, c, RULED_23)
    rhs = r * pl.intersect(a, c, RULED_23) + pl.intersect(b, c, RULED_23)
    assert lhs == rhs
    assert pl.intersect(a, b, RULED_23) == pl.intersect(b, a, RULED_23)


@given(st.integers(min_value=1, max_value=5), st.data())
def test_solve_roundtrip(n, data):
    rows = data.draw(
        st.lists(st.lists(small_rats, min_size=n, max_size=n),
                 min_size=n, max_size=n)
    )
    if determinant(rows) == 0:
        return
    x = data.draw(st.lists(small_rats, min_size=n, max_size=n))
    rhs = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)]
    assert pl.solve_exact(rows, rhs) == x


def _all_principal_minors_oracle(m):
    """Negative definite iff every order-k principal minor has sign (-1)^k."""
    import itertools

    n = len(m)
    for k in range(1, n + 1):
        for idx in itertools.combinations(range(n), k):
            sub = [[m[i][j] for j in idx] for i in idx]
            d = determinant(sub)
            if d == 0 or (d > 0) != (k % 2 == 0):
                return False
    return True


def test_negative_definite_matches_minor_oracle():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randrange(1, 7)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                m[i][j] = m[j][i] = v
        assert pl.is_negative_definite(m) == _all_principal_minors_oracle(m)


def test_ldl_factor_matches_sylvester_and_solve_exact():
    """Grown row by row, the factor's pivots give is_negative_definite's
    verdict and its solution is solve_exact's."""
    rng = random.Random(1968)
    definite = 0
    for _ in range(400):
        n = rng.randrange(1, 7)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                m[i][j] = m[j][i] = v
            if rng.random() < 0.5:  # diagonally dominant, often definite
                m[i][i] = Fraction(-4 * n)
        rhs = [Fraction(rng.randrange(-5, 6)) for _ in range(n)]
        factor = LDLFactor()
        for k in range(n):
            if factor.extend(m[k][: k + 1], rhs[k]) == 0:
                break
        else:
            assert all(p < 0 for p in factor.pivots) == (
                pl.is_negative_definite(m)
            )
            assert factor.solve() == pl.solve_exact(m, rhs)
            definite += all(p < 0 for p in factor.pivots)
            continue
        assert not pl.is_negative_definite(m)
    assert definite > 100


def test_signature_hodge_shape():
    assert signature(RULED_23.gram) == (1, 1, 0)
    assert signature([[Fraction(1)]]) == (1, 0, 0)
    assert signature([[Fraction(0)]]) == (0, 0, 1)
