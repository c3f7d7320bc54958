"""Exact rational intersection theory.

Divisor classes live in one lattice per blow-up tower, with a symmetric
bilinear form.  An exact number is canonical: an ``int`` when its value
is integral, a ``fractions.Fraction`` only when it is not.  ``rat`` makes
a number canonical, and every input and every quotient goes through it,
so this module is the only one that builds a Fraction; there is
deliberately no floating-point anywhere in this package.  Since
``int / int`` is a float in Python, every division has a Fraction
operand or is an exact ``//``: the LDLᵀ factor of the Zariski solve
holds only ints, scaled by leading minors, and the solve reads N and P
off it as one ``quotient`` of ints per printed coefficient.  A pair's
discrepancies a, σ and pa are ints too: numerators over one positive
int, ``PairSpec.den``, compared as ints and printed by ``numeral_over``;
Fractions are made from them only for the total potential discrepancy
and ε₀, one ``quotient`` each, and in the rational view
``potential_ledger``.  The class a pair or the CLI decomposes, −(K+Δ),
±K or a named divisor, reaches the solve as an int class d·D with its
positive int d, summed in ints by ``surface.integral_class``.  Other sums
are not normalized, so a ``Fraction(n, 1)`` can still come out of a sum
of genuine fractions from a rational Δ or form, such as an intersection
number.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple, Sequence


class LatticeMismatchError(ValueError):
    """Raised when classes from different lattices are combined."""


class SingularMatrixError(ValueError):
    """Raised by solve_exact on a singular system."""


class DigitLimitError(ValueError):
    """Raised by ``numeral`` on a number it cannot print."""


# p and q of at most 4300 digits: the default limit of int/str conversion
RATIONAL = re.compile(r"-?[0-9]{1,4300}(?:/[0-9]{1,4300})?")


def rat(x) -> int | Fraction:
    """Coerce an int, Fraction or 'p/q' string to a canonical exact
    rational: an int when the value is integral, else a Fraction.

    Floats are rejected: they would silently destroy exactness.  A string
    not '[-]p[/q]' raises ValueError, or ZeroDivisionError for q = 0.
    """
    if type(x) is int:  # the common case, tested first
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        if not RATIONAL.fullmatch(x):
            raise ValueError(f"not a '[-]p[/q]' rational: {x!r}")
        p, _, q = x.partition("/")
        return quotient(int(p), int(q or 1))
    raise TypeError(f"not an exact rational: {x!r}")


def numeral(x) -> str:
    """str(x), or DigitLimitError where a part of the number has more
    digits than the interpreter's int/str conversion limit."""
    try:
        return str(x)
    except ValueError:  # only that limit makes str fail on a number
        raise DigitLimitError(
            f"a number to print has more than {sys.get_int_max_str_digits()} "
            f"digits") from None


def numeral_over(p: int, den: int) -> str:
    """str(Fraction(p, den)) for ints p and den > 0, reduced by one gcd
    without building the Fraction; DigitLimitError as ``numeral``."""
    g = gcd(p, den)
    if g == den:
        return numeral(p // g)
    return f"{numeral(p // g)}/{numeral(den // g)}"


def quotient(p, q) -> int | Fraction:
    """p / q as a canonical exact rational, for ints and Fractions p, q."""
    if type(p) is int and type(q) is int and not p % q:
        return p // q
    return rat(Fraction(p, q))


Matrix = Sequence[Sequence[Fraction]]


class DivisorClass(NamedTuple):
    """A divisor class in a tower's lattice: ``terms`` maps basis index to
    coefficient, nonzero ones only (f*C − Σ mⱼEⱼ has one per center on C).
    Classes are never changed once built, so they may share ``terms``.  A
    class has no rank, so a class of a level is its own pullback above it.

    A coefficient is an int or a Fraction, never a float: sums and products
    of ints stay ints, and nothing here divides.  A class has no
    arithmetic: ``surface.integral_class`` sums classes.
    """

    terms: dict[int, int | Fraction]
    lattice_id: str

    @classmethod
    def dense(
        cls, coeffs: Sequence[int | Fraction], lattice_id: str
    ) -> "DivisorClass":
        return cls({i: c for i, c in enumerate(coeffs) if c}, lattice_id)


def basis_class(index: int, lattice_id: str) -> DivisorClass:
    return DivisorClass({index: 1}, lattice_id)


class IntersectionForm(NamedTuple):
    """A tower's form: a base Gram block, then ⟨−1⟩ on every later coordinate.

    A blow-up adds one basis vector E with E² = −1, orthogonal to the
    pullback of the old lattice (Hartshorne V.3.2), so one form serves
    every level of a tower.  The block is taken as given: ``make_base``
    checks a user-supplied one.
    """

    lattice_id: str
    gram: tuple[tuple[int | Fraction, ...], ...]


def intersect(
    a: DivisorClass, b: DivisorClass, form: IntersectionForm
) -> int | Fraction:
    """Exact intersection product: aᵀ · gram · b on the base coordinates,
    minus Σ aₑbₑ over the coordinates past them.  Runs over the nonzero
    coordinates of the sparser class; an int when both classes and the
    form are integral."""
    if a.lattice_id != form.lattice_id or b.lattice_id != form.lattice_id:
        raise LatticeMismatchError(
            f"lattice mismatch: classes {a.lattice_id!r}, {b.lattice_id!r} "
            f"against form {form.lattice_id!r}"
        )
    if len(a.terms) > len(b.terms):
        a, b = b, a
    n, bt = len(form.gram), b.terms
    total = 0
    for i, ai in a.terms.items():
        if i >= n:
            if i in bt:
                total -= ai * bt[i]
            continue
        for j, gij in enumerate(form.gram[i]):
            if gij and j in bt:
                total += ai * gij * bt[j]
    return total


def gram_submatrix(
    classes: Sequence[DivisorClass], form: IntersectionForm
) -> list[list[int | Fraction]]:
    """Pairwise intersection matrix of the given classes.

    zariski_decompose builds its Gram rows itself; this stays as the
    tests' reference and as a span that bench/spans.py traces.
    """
    if not classes:
        raise ValueError("gram_submatrix of an empty list")
    return [[intersect(a, b, form) for b in classes] for a in classes]


def _check_symmetric(m: Matrix) -> None:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix must be symmetric")


def is_negative_definite(m: Matrix) -> bool:
    """Whether the symmetric matrix m is negative definite: its signature
    is (0, n, 0), by Sylvester's law of inertia.  True on [].

    zariski_decompose reads the same answer off the pivots of its
    LDLFactor; this stays as the tests' reference and as a span that
    bench/spans.py traces.
    """
    return signature(m) == (0, len(m), 0)


def solve_exact(m: Matrix, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve m·x = rhs exactly. Raises SingularMatrixError if singular."""
    n = len(m)
    if any(len(row) != n for row in m) or len(rhs) != n:
        raise ValueError("dimension mismatch")
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(m)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("singular matrix")
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f == 0:
                continue
            for j in range(k, n + 1):
                a[i][j] -= f * a[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / a[k][k]
    return x


class LDLFactor:
    """A symmetric system G·x = b of ints, grown one keyed equation at a
    time by fraction-free elimination (Bareiss 1968), without pivoting.

    ``minors[k]`` is the k-th leading principal minor Δₖ of G (Δ₀ = 1), and
    Δₖ₊₁/Δₖ the k-th pivot of G = L·diag(pivots)·Lᵀ, so G is negative
    definite exactly when consecutive minors alternate in sign (Sylvester);
    extend only while every minor is nonzero.  After stage k (k unknowns
    eliminated) each entry of (G | b) is A/Δₖ for a bordered minor A, an
    int; stage k+1 makes it (Δₖ₊₁·A − Aᵢₖ·Aⱼₖ)/Δₖ, exact by Sylvester's
    identity, which is A·Δₖ₊₁/Δₖ where Aᵢₖ·Aⱼₖ = 0.  So an entry is kept at
    the stage s that last changed it, and scaled by Δₜ/Δₛ when read at t.

    The factor is bordered by every key that a joined row touches but that
    has not joined: key j keeps Aⱼₖ for each unknown k whose join reached
    it, and ``residual[j]`` = (A, s) with bⱼ − Σₖ G[j][k]·xₖ = A/Δₛ, which
    needs no x.  Joining key m folds G[m][m] through the stages of its
    border into Δₘ₊₁, and its border becomes ``lower[m]``, L's row m times
    the Δₖ₊₁; a border key that m's row or L row reaches gets one entry,
    folded likewise from G[m][j], and its residual moves to stage m+1: one
    entry per nonzero of the bordered factor, with no fill-in when each
    unknown meets at most one later one (George & Liu 1981), as on a tree
    taken from its leaves, such as the infinitely-near chain's path.
    """

    def __init__(self, rhs: Sequence[int]):
        self._rhs = rhs  # b over every key that may join or be touched
        self.minors = [1]
        self.lower: list[dict[int, int]] = []  # unknown k: {j: Aₖⱼ}, j < k
        self._z: list[int] = []  # unknown k: b's entry at stage k
        self._joined: set[int] = set()
        self._border: dict[int, dict[int, int]] = {}  # j: {k: Aⱼₖ ≠ 0}
        self._reach: list[list[int]] = []  # unknown k: keys that got an Aⱼₖ
        self.residual: dict[int, tuple[int, int]] = {}  # key j: (A, s)

    def _fold(self, v: int, wa: dict[int, int], wb: dict[int, int]) -> int:
        """Entry v of G, of rows a, b with borders wa, wb, at stage len(lower)."""
        d, s = self.minors, 0
        for k, ak in wa.items():
            if k in wb:
                v, s = (d[k + 1] * (v * d[k] // d[s]) - ak * wb[k]) // d[k], k + 1
        return v * d[len(self.lower)] // d[s]

    def extend(self, key: int, row: Mapping[int, int]) -> int:
        """Join equation ``key`` as unknown m = len(lower).  ``row`` holds
        its nonzero Gram entries against any keys, its diagonal included;
        entries against joined keys are already in the border.  Returns
        Δₘ₊₁ times the sign of Δₘ, which is the sign of the new pivot."""
        m, d = len(self.lower), self.minors
        w = self._border.pop(key, {})
        y, s = self.residual.pop(key, (self._rhs[key], 0))
        y = y * d[m] // d[s]
        minor = self._fold(row.get(key, 0), w, w)
        self._joined.add(key)
        touched = {j for j in row if j not in self._joined}
        for i in w:
            touched.update(j for j in self._reach[i] if j in self._border)
        reach = []
        for j in touched:
            wj = self._border.setdefault(j, {})
            v = self._fold(row.get(j, 0), w, wj) if w else row.get(j, 0) * d[m]
            if v:
                wj[m] = v
                reach.append(j)
                r, s = self.residual.get(j, (self._rhs[j], 0))
                r = (minor * (r * d[m] // d[s]) - v * y) // d[m]
                self.residual[j] = r, m + 1
        d.append(minor)
        self.lower.append(w)
        self._z.append(y)
        self._reach.append(reach)
        return minor if d[m] > 0 else -minor

    def solve(self) -> tuple[list[int], int]:
        """(X, q) with x = X/q solving G·x = b in joining order, q = |Δₙ|:
        ints (Cramer), back-substituted by Δₖ₊₁·Xₖ = Δₙ·zₖ − Σ_{i>k} Aᵢₖ·Xᵢ."""
        d, n = self.minors, len(self.lower)
        x = [d[n] * z for z in self._z]
        for k in range(n - 1, -1, -1):
            xk = x[k] = x[k] // d[k + 1]
            if xk:
                for j, a in self.lower[k].items():
                    x[j] -= a * xk
        return (x, d[n]) if d[n] > 0 else ([-v for v in x], -d[n])


def signature(m: Matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix.

    Uses exact symmetric congruence reduction, so no eigenvalues are needed.
    """
    _check_symmetric(m)
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                for r in range(n):
                    a[r][k], a[r][swap] = a[r][swap], a[r][k]
                a[k], a[swap] = a[swap], a[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                # a[k][k] == a[off][off] == 0, a[k][off] != 0: add row/col
                for r in range(n):
                    a[r][k] += a[r][off]
                for c in range(n):
                    a[k][c] += a[off][c]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f == 0:
                continue
            for c in range(n):
                a[i][c] -= f * a[k][c]
            for r in range(n):
                a[r][i] -= f * a[r][k]
    return pos, neg, zero
