"""Exact rational intersection theory.

Divisor classes live in a fixed finite-rank lattice with a symmetric
bilinear form.  Every coefficient is a ``fractions.Fraction``; there is
deliberately no floating-point anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class LatticeMismatchError(ValueError):
    """Raised when classes from different lattices are combined."""


class SingularMatrixError(ValueError):
    """Raised by solve_exact on a singular system."""


def rat(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction.

    Floats are rejected: they would silently destroy exactness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


Matrix = Sequence[Sequence[Fraction]]


@dataclass(frozen=True)
class DivisorClass:
    """A divisor class: rational coordinates in a fixed lattice basis."""

    coeffs: tuple[Fraction, ...]
    lattice_id: str

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def _check(self, other: "DivisorClass") -> None:
        if self.lattice_id != other.lattice_id:
            raise LatticeMismatchError(
                f"classes from different lattices: "
                f"{self.lattice_id!r} vs {other.lattice_id!r}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.lattice_id,
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            self.lattice_id,
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs), self.lattice_id)

    def scale(self, r) -> "DivisorClass":
        r = rat(r)
        return DivisorClass(tuple(r * a for a in self.coeffs), self.lattice_id)

    def __rmul__(self, r) -> "DivisorClass":
        return self.scale(r)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)


def zero_class(rank: int, lattice_id: str) -> DivisorClass:
    return DivisorClass((Fraction(0),) * rank, lattice_id)


def basis_class(index: int, rank: int, lattice_id: str) -> DivisorClass:
    coeffs = [Fraction(0)] * rank
    coeffs[index] = Fraction(1)
    return DivisorClass(tuple(coeffs), lattice_id)


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric bilinear form: a base Gram block ⊕ ⟨−1⟩^exceptional.

    A blow-up adds one basis vector E with E² = −1, orthogonal to the
    pullback of the old lattice (Hartshorne V.3.2), so every level of a
    tower shares the base block and only ``exceptional`` grows.  The block
    is taken as given: ``make_base`` checks a user-supplied one.
    """

    lattice_id: str
    gram: tuple[tuple[Fraction, ...], ...]
    exceptional: int = 0

    @property
    def rank(self) -> int:
        return len(self.gram) + self.exceptional


def intersect(a: DivisorClass, b: DivisorClass, form: IntersectionForm) -> Fraction:
    """Exact intersection product: aᵀ · gram · b on the base coordinates,
    minus Σ aₑbₑ over the exceptional ones."""
    if a.lattice_id != form.lattice_id or b.lattice_id != form.lattice_id:
        raise LatticeMismatchError(
            f"lattice mismatch: classes {a.lattice_id!r}, {b.lattice_id!r} "
            f"against form {form.lattice_id!r}"
        )
    n = len(form.gram)
    total = Fraction(0)
    for ai, row in zip(a.coeffs, form.gram):
        if ai == 0:
            continue
        for gij, bj in zip(row, b.coeffs):
            if bj != 0:
                total += ai * gij * bj
    for ae, be in zip(a.coeffs[n:], b.coeffs[n:]):
        if ae != 0 and be != 0:
            total -= ae * be
    return total


def gram_submatrix(
    classes: Sequence[DivisorClass], form: IntersectionForm
) -> list[list[Fraction]]:
    """Pairwise intersection matrix of the given classes.

    zariski_decompose builds its Gram rows itself; this stays as the
    tests' reference and as a span that bench/spans.py traces.
    """
    if not classes:
        raise ValueError("gram_submatrix of an empty list")
    n = len(classes)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = intersect(classes[i], classes[j], form)
            out[i][j] = v
            out[j][i] = v
    return out


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
    """Sylvester test: leading principal minors alternate, starting negative.

    Computed by exact Gaussian elimination without row swaps; the k-th
    leading minor is the product of the first k pivots, so a zero pivot
    means a zero minor and the matrix is not definite.  zariski_decompose
    reads the same pivots off its LDLFactor; this stays as the tests'
    reference and as a span that bench/spans.py traces.
    """
    _check_symmetric(m)
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    minor = Fraction(1)
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            return False
        minor *= pivot
        expected_sign = -1 if (k + 1) % 2 else 1
        if (minor > 0) != (expected_sign > 0):
            return False
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f == 0:
                continue
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


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


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Σ aᵢ·bᵢ, skipping zeros: a tower's Gram rows are mostly zero."""
    return sum((x * y for x, y in zip(a, b) if x and y), Fraction(0))


class LDLFactor:
    """A symmetric system G·x = b grown one equation at a time, kept as
    G = L·diag(pivots)·Lᵀ with L unit lower triangular and y = L⁻¹·b.

    There is no pivoting, so the k-th pivot is the ratio of the k-th and
    (k−1)-th leading principal minors of G: G is negative definite exactly
    when every pivot is negative, the test ``is_negative_definite`` runs.
    Extend only while every pivot so far is nonzero.
    """

    def __init__(self):
        self.lower: list[list[Fraction]] = []  # row k: L[k][0..k-1]
        self.pivots: list[Fraction] = []
        self._y: list[Fraction] = []

    def extend(self, row: Sequence[Fraction], rhs: Fraction) -> Fraction:
        """Add the equation whose Gram row is ``row`` (its entries against
        the earlier unknowns, then its diagonal) and right-hand side
        ``rhs``; returns the new pivot."""
        scaled: list[Fraction] = []  # L[k][j]·pivots[j]
        lk: list[Fraction] = []
        for j, (lj, pj) in enumerate(zip(self.lower, self.pivots)):
            s = row[j] - _dot(scaled, lj)
            scaled.append(s)
            lk.append(s / pj)
        pivot = row[len(lk)] - _dot(scaled, lk)
        self.lower.append(lk)
        self.pivots.append(pivot)
        self._y.append(rhs - _dot(lk, self._y))
        return pivot

    def solve(self) -> list[Fraction]:
        """x with G·x = b, by one back-substitution Lᵀ·x = diag⁻¹·y."""
        x = [y / p for y, p in zip(self._y, self.pivots)]
        for k in range(len(x) - 1, -1, -1):
            if x[k]:
                for j, l in enumerate(self.lower[k]):
                    if l:
                        x[j] -= l * x[k]
        return x


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
