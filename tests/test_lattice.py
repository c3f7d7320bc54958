import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import pklt_lab as pl
from conftest import determinant, factor_numbers
from pklt_lab.lattice import (
    DivisorClass,
    IntersectionForm,
    LDLFactor,
    basis_class,
    numeral,
    rat,
    signature,
)


RULED_23 = IntersectionForm(
    "r", ((Fraction(-3), Fraction(1)), (Fraction(1), Fraction(0)))
)


def cls(*coeffs, lat="r"):
    return DivisorClass.dense(tuple(Fraction(c) for c in coeffs), lat)


def test_rat_reads_only_the_p_over_q_grammar():
    """A string is '[-]p[/q]', p and q of at most 4300 digits, read
    canonically: no decimal point, exponent, '+', space or underscore."""
    assert [rat("-6/4"), rat("4/2"), rat("-0"), rat("9" * 4300)] == [
        Fraction(-3, 2), 2, 0, int("9" * 4300)]
    assert type(rat("4/2")) is int and type(pl.lattice.quotient(6, 3)) is int
    for text in ("0.5", "1e-5000", "1E2", "+1", " 1", "1_0", "1/-3", "1/",
                 "/3", "", "\u0663", "9" * 4301, "1/" + "9" * 4301):
        with pytest.raises(ValueError, match="not a '\\[-\\]p\\[/q\\]' rational"):
            rat(text)
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


def test_numeral_prints_up_to_the_digit_limit():
    """str of an exact number; a part of more than 4300 digits, the
    interpreter's int/str limit, raises DigitLimitError, a ValueError."""
    assert issubclass(pl.DigitLimitError, ValueError)
    assert numeral(Fraction(-1, 10 ** 4299)) == "-1/1" + "0" * 4299
    for x in (10 ** 4300, Fraction(1, 10 ** 4300)):
        with pytest.raises(pl.DigitLimitError,
                           match="more than 4300 digits"):
            numeral(x)


def test_intersect_unit_class_on_p2():
    form = IntersectionForm("p2", ((Fraction(1),),))
    L = basis_class(0, "p2")
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
        pl.intersect(basis_class(0, "p2"), cls(1, 0), form)
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
        ([[0, 1], [1, 0]], False),
        ([], True),
    ],
)
def test_is_negative_definite(m, expected):
    m = [[Fraction(x) for x in row] for row in m]
    assert pl.is_negative_definite(m) is expected


def test_is_negative_definite_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        pl.is_negative_definite([[Fraction(-1), Fraction(2)],
                                 [Fraction(0), Fraction(-1)]])
    with pytest.raises(ValueError, match="square"):
        pl.is_negative_definite([[-1, 0]])


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
    lhs = pl.intersect(cls(r * a0 + b0, r * a1 + b1), c, RULED_23)
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


def _only_ints(factor, *more):
    """Every number the factor stores is an int, and so is each of
    ``more``."""
    return all(type(v) is int for v in [*factor_numbers(factor), *more])


def _lcm_of_denominators(values):
    return math.lcm(*(Fraction(v).denominator for v in values))


def test_ldl_factor_matches_sylvester_and_solve_exact():
    """Grown row by row, the factor's pivots give is_negative_definite's
    verdict and its solution is solve_exact's.  After every equation its
    border holds, for each equation still to join and for an extra column
    c that never joins, the residual c_rhs − cᵀ·solve_exact(G, b) over the
    equations joined so far, whose sign is that of the stored residual
    times its stage's minor.  Every other system is all ints, as the
    Zariski rows of an integral class are; the others are Fraction
    systems, which the factor sees as ints scaled by c for G and e for b,
    both positive (zariski_decompose takes one c = e that clears both;
    any positive scales keep every sign): its pivots are then
    c times G's, its residuals e times G's, and its x e/c times G's.  Each
    is read out exactly from the factor's ints: pivot Δₖ₊₁/Δₖ, residual
    A/Δₛ and x = X/q.  The factor stores nothing but ints."""
    rng = random.Random(1968)
    definite = bordered = negative = scaled = 0
    for t in range(800):
        def entry(top, den=1):
            """An int on odd t, else a Fraction with denominator <= den."""
            v = rng.randrange(-top, top + 1)
            return v if t % 2 else Fraction(v, rng.randrange(1, den + 1))

        n = rng.randrange(1, 7)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = entry(4, 3)
            if rng.random() < 0.5:  # diagonally dominant, often definite
                m[i][i] = -4 * n
        rhs = [entry(5, 2) for _ in range(n)]
        extra = [entry(3, 2) for _ in range(n)]
        rhs.append(entry(5, 2))  # the extra column's, key n
        c = _lcm_of_denominators([v for r in m for v in r] + extra)
        e = _lcm_of_denominators(rhs)
        scaled += c > 1 and e > 1
        factor = LDLFactor([int(e * v) for v in rhs])
        for k in range(n):
            row = {j: int(c * v) for j, v in enumerate(m[k] + [extra[k]]) if v}
            sign = factor.extend(k, row)
            pivot = Fraction(factor.minors[-1], factor.minors[-2])
            assert (sign > 0) - (sign < 0) == (pivot > 0) - (pivot < 0)
            if sign == 0:
                break
            assert _only_ints(factor)
            x = pl.solve_exact([r[: k + 1] for r in m[: k + 1]], rhs[: k + 1])
            columns = [r[: k + 1] for r in m[k + 1:]] + [extra[: k + 1]]
            below = set()
            for key, col in enumerate(columns, k + 1):
                want = rhs[key] - sum(ci * xi for ci, xi in zip(col, x))
                if key in factor.residual:
                    r, stage = factor.residual[key]
                    got = Fraction(r, factor.minors[stage])
                    bordered += 1
                else:
                    got = e * rhs[key]
                assert got == e * want
                if key in factor.residual and want < 0:
                    below.add(key)
            assert below == {j for j, (r, stage) in factor.residual.items()
                             if r * factor.minors[stage] < 0}
            negative += len(below)
        else:
            d = factor.minors
            pivots = [Fraction(a, b) / c for a, b in zip(d[1:], d)]
            assert all(p < 0 for p in pivots) == pl.is_negative_definite(m)
            X, q = factor.solve()
            assert q > 0
            assert [Fraction(c * v, e * q) for v in X] == pl.solve_exact(
                m, rhs[:n])
            assert _only_ints(factor, *X, q)
            definite += all(p < 0 for p in pivots)
            continue
        assert not pl.is_negative_definite(m)
    assert definite > 200
    assert bordered > 2000
    assert negative > 200
    assert scaled > 200


def test_signature_hodge_shape():
    assert signature(RULED_23.gram) == (1, 1, 0)
    assert signature([[Fraction(1)]]) == (1, 0, 0)
    assert signature([[Fraction(0)]]) == (0, 0, 1)


def characteristic_polynomial(m):
    """Coefficients c[0..n] of det(xI − m), c[n] = 1, by Faddeev–LeVerrier
    in exact arithmetic."""
    n = len(m)
    c = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(m[i][t] * mk[t][j] for t in range(n))
               + (c[n - k + 1] if i == j else 0) for j in range(n)]
              for i in range(n)]
        trace = sum(m[i][t] * mk[t][i] for i in range(n) for t in range(n))
        c[n - k] = -trace / k
    return c


def sign_changes(coeffs):
    signs = [x > 0 for x in coeffs if x != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def descartes_signature(m):
    """Signature by Descartes' rule of signs on the characteristic
    polynomial.  The rule counts positive roots exactly when every root is
    real, as it is for a symmetric matrix."""
    c = characteristic_polynomial(m)
    zero = next(i for i, x in enumerate(c) if x != 0)
    pos = sign_changes(c)
    neg = sign_changes([x if i % 2 == 0 else -x for i, x in enumerate(c)])
    return pos, neg, zero


def test_signature_matches_descartes_rule_of_signs():
    """Random symmetric matrices of size 1 to 5 with small entries, zero
    diagonals frequent: the diagonal swap and the off-diagonal congruence
    of signature both run."""
    rng = random.Random(339)
    zero_diagonal = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.choice([-2, -1, 0, 0, 0, 1, 2]))
        zero_diagonal += any(m[i][i] == 0 for i in range(n))
        assert signature(m) == descartes_signature(m), m
    assert zero_diagonal > 1000


@pytest.mark.parametrize("gram, expected", [
    ([[0, 1], [1, 0]], (1, 1, 0)),  # the hyperbolic plane: off-diagonal step
    ([[0, 1], [1, 1]], (1, 1, 0)),  # diagonal swap
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (1, 1, 1)),
])
def test_signature_zero_diagonal_branches(gram, expected):
    m = [[Fraction(x) for x in row] for row in gram]
    assert signature(m) == expected == descartes_signature(m)
