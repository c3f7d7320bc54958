"""Exact rational intersection theory.

Divisor classes live in a fixed finite-rank lattice with a symmetric
bilinear form.  An exact number is canonical: an ``int`` when its value
is integral, a ``fractions.Fraction`` only when it is not.  ``rat`` makes
a number canonical, and every input and every quotient goes through it,
so this module is the only one that builds a Fraction; there is
deliberately no floating-point anywhere in this package.  Since
``int / int`` is a float in Python, every division has a Fraction
operand: the pivots of the LDLᵀ factor stay Fractions, being the
divisors.  Sums are not normalized, except a class's coefficients in
``DivisorClass.plus``, so a ``Fraction(n, 1)`` can still come out of a
sum of genuine fractions from a rational Δ or form, such as an
intersection number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence


class LatticeMismatchError(ValueError):
    """Raised when classes from different lattices are combined."""


class SingularMatrixError(ValueError):
    """Raised by solve_exact on a singular system."""


def rat(x) -> int | Fraction:
    """Coerce an int, Fraction or 'p/q' string to a canonical exact
    rational: an int when the value is integral, else a Fraction.

    Floats are rejected: they would silently destroy exactness.  A bad
    string raises ValueError, or ZeroDivisionError for a zero denominator.
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
        return rat(Fraction(x))
    raise TypeError(f"not an exact rational: {x!r}")


def quotient(p, q) -> int | Fraction:
    """p / q as a canonical exact rational, for ints and Fractions p, q."""
    return rat(Fraction(p, q))


Matrix = Sequence[Sequence[Fraction]]


class DivisorClass(NamedTuple):
    """A divisor class in a fixed lattice basis: ``terms`` maps basis index
    to coefficient, nonzero ones only (f*C − Σ mⱼEⱼ has one per center on
    C).  Classes are never changed once built, so they may share ``terms``.

    A coefficient is an int or a Fraction, never a float: sums and products
    of ints stay ints, and nothing here divides.  ``plus`` makes the
    coefficients it sums canonical.
    """

    terms: dict[int, int | Fraction]
    rank: int
    lattice_id: str

    @classmethod
    def dense(
        cls, coeffs: Sequence[int | Fraction], lattice_id: str
    ) -> "DivisorClass":
        return cls({i: c for i, c in enumerate(coeffs) if c}, len(coeffs),
                   lattice_id)

    @property
    def coeffs(self) -> tuple[int | Fraction, ...]:
        return tuple(self.terms.get(i, 0) for i in range(self.rank))

    def plus(
        self, scaled: Iterable[tuple[int | Fraction, "DivisorClass"]]
    ) -> "DivisorClass":
        """self + Σ r·C over the (r, C) pairs, all in this lattice, with
        canonical coefficients."""
        terms = dict(self.terms)
        for r, other in scaled:
            if other.lattice_id != self.lattice_id:
                raise LatticeMismatchError(
                    f"classes from different lattices: "
                    f"{self.lattice_id!r} vs {other.lattice_id!r}"
                )
            for i, c in other.terms.items():
                terms[i] = terms.get(i, 0) + r * c
        terms = {i: rat(c) for i, c in terms.items() if c}
        return DivisorClass(terms, self.rank, self.lattice_id)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self.plus(((1, other),))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self.plus(((-1, other),))

    def __neg__(self) -> "DivisorClass":
        return self.scale(-1)

    def scale(self, r) -> "DivisorClass":
        r = rat(r)
        terms = {i: r * c for i, c in self.terms.items()} if r else {}
        return DivisorClass(terms, self.rank, self.lattice_id)


def basis_class(index: int, rank: int, lattice_id: str) -> DivisorClass:
    return DivisorClass({index: 1}, rank, lattice_id)


class IntersectionForm(NamedTuple):
    """Symmetric bilinear form: a base Gram block ⊕ ⟨−1⟩^exceptional.

    A blow-up adds one basis vector E with E² = −1, orthogonal to the
    pullback of the old lattice (Hartshorne V.3.2), so every level of a
    tower shares the base block and only ``exceptional`` grows.  The block
    is taken as given: ``make_base`` checks a user-supplied one.
    """

    lattice_id: str
    gram: tuple[tuple[int | Fraction, ...], ...]
    exceptional: int = 0

    @property
    def rank(self) -> int:
        return len(self.gram) + self.exceptional


def intersect(
    a: DivisorClass, b: DivisorClass, form: IntersectionForm
) -> int | Fraction:
    """Exact intersection product: aᵀ · gram · b on the base coordinates,
    minus Σ aₑbₑ over the exceptional ones.  Runs over the nonzero
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
    """A symmetric system G·x = b grown one keyed equation at a time, kept
    as G = L·diag(pivots)·Lᵀ with L unit lower triangular, and
    z = diag(pivots)⁻¹·L⁻¹·b, which no later equation changes.

    There is no pivoting, so the k-th pivot is the ratio of the k-th and
    (k−1)-th leading principal minors of G: G is negative definite exactly
    when every pivot is negative (Sylvester's criterion).
    Extend only while every pivot so far is nonzero.

    The factor is bordered by every equation that a joined row touches
    but that has not joined: such a key j keeps wⱼ = L⁻¹·(G[k][j])ₖ over
    its nonzeros and its residual bⱼ − Σₖ G[j][k]·xₖ = bⱼ − wⱼ·z, which
    needs no x.  wⱼ is the scaled L row j would get on joining, so joining
    promotes it: pivot G[j][j] − Σ wⱼₖ²/pivotₖ, z = residual/pivot.  When
    unknown m joins, a border key that m's row or m's L row reaches gets
    one entry wⱼₘ = G[m][j] − Σₖ L[m][k]·wⱼₖ, and its residual drops by
    wⱼₘ·zₘ; no earlier entry changes.  So a key's residual is always at
    hand, x is needed only once, by ``solve``, and the work is one entry
    per nonzero of the bordered factor: when each unknown meets at most
    one later one (a tree taken from its leaves towards a root, such as
    the infinitely-near chain's path taken from one end), elimination
    makes no fill-in (George & Liu 1981) and L has one entry per edge of
    G's graph.

    G and b may hold ints.  Each pivot is kept as a Fraction, so that L
    and z, the quotients by it, are exact (int / int would be a float);
    those quotients, and x, are canonical, an int when integral, so an
    integral solution of an integral system is solved in ints after its
    divisions.  Entries that need no division stay as the rows give them.
    """

    def __init__(self, rhs: Sequence[int | Fraction]):
        self._rhs = rhs  # b over every key that may join or be touched
        self.lower: list[dict[int, int | Fraction]] = []  # {j: L[k][j]}, j < k
        self.pivots: list[Fraction] = []
        self._z: list[int | Fraction] = []
        self._joined: set[int] = set()
        self._border: dict[int, dict[int, int | Fraction]] = {}  # j: {k: wⱼₖ ≠ 0}
        self._reach: list[list[int]] = []  # unknown k: keys that got a wⱼₖ
        self.residual: dict[int, int | Fraction] = {}  # key j: bⱼ − G[j]·x

    def extend(self, key: int, row: Mapping[int, int | Fraction]) -> Fraction:
        """Join equation ``key`` as unknown k = len(pivots).  ``row`` holds
        its nonzero Gram entries against any keys, its diagonal included;
        entries against joined keys are already in the border.  Returns
        the new pivot."""
        k = len(self.pivots)
        w = self._border.pop(key, {})
        y = self.residual.pop(key, self._rhs[key])
        lk = {j: rat(wj / self.pivots[j]) for j, wj in w.items()}
        pivot = Fraction(row.get(key, 0))
        for j, wj in w.items():
            pivot -= wj * lk[j]
        z = rat(y / pivot) if pivot else y  # y if 0: nothing follows
        self._joined.add(key)
        self.lower.append(lk)
        self.pivots.append(pivot)
        self._z.append(z)
        touched = {j for j in row if j not in self._joined}
        for i in lk:
            touched.update(j for j in self._reach[i] if j in self._border)
        reach = []
        for j in touched:
            wj = self._border.setdefault(j, {})
            v = row.get(j, 0)
            for i, l in lk.items():
                if i in wj:
                    v -= l * wj[i]
            if v:
                wj[k] = v
                reach.append(j)
                self.residual[j] = self.residual.get(j, self._rhs[j]) - v * z
        self._reach.append(reach)
        return pivot

    def solve(self) -> list[int | Fraction]:
        """x with G·x = b, in joining order, by one back-substitution
        Lᵀ·x = z; each xₖ canonical."""
        x = list(self._z)
        for k in range(len(x) - 1, -1, -1):
            xk = x[k] = rat(x[k])
            if xk:
                for j, l in self.lower[k].items():
                    x[j] -= l * xk
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
