"""Discrepancies, potential discrepancies and pair classification.

For a pair (X, Δ) presented as a level of a blow-up tower with the top
level acting as a log resolution, this module computes per-curve
discrepancies a, the negative-part multiplicities of the pulled-back
anti-log-canonical class, the potential discrepancies pa = a - sigma,
the total potential discrepancy, the Nklt / pNklt / ε-spNklt loci and
their incidence graphs, the derived classification flags, plus the
surface Fano-type test.

The infimum over all divisorial valuations reduces to a finite minimum:
with nef positive part at the top level, blowing up a free point of a
curve sends pa to pa + 1 and blowing up a node to pa_i + pa_j + 1, so
the infimum is min(0, per-curve pa) when that is >= -1 and diverges to
-infinity otherwise.  The test suite re-derives this recursion on real
towers rather than trusting it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .lattice import DivisorClass, intersect, quotient, rat
from .surface import (
    RDivisor,
    Record,
    SurfaceModel,
    integral_class,
    total_transform,
    validate,
)
from .zariski import (
    InvariantViolation,
    NotPseudoeffectiveError,
    ZariskiDecomposition,
    zariski_decompose,
)


class PairError(ValueError):
    """The pair does not satisfy its standing hypotheses."""


def _require(holds: bool, invariant: str, detail: str) -> None:
    if not holds:
        raise InvariantViolation(invariant, detail)


class _NegInfinity:
    """Total potential discrepancy sentinel for divergence to -infinity.
    Its str, "-inf", is the text a report prints for it."""

    def __repr__(self):
        return "-inf"


NEG_INFINITY = _NegInfinity()


class PairSpec(Record):
    """A validated pair (X, Δ) with its analysis, computed once by make_pair.

    ``decomposition`` is the Zariski decomposition of f*(-(K+Δ)) at the
    top level of the tower, pulled back from the pair level: P = f*P_X
    and N = f*N_X, and big when -(K+Δ) is.  ``ledger`` maps each
    top-level curve id, in catalog order, to its row of int numerators
    over ``den``, the lcm of the denominators of Δ's and N's coefficients,
    which every a-value divides; ``potential_ledger`` is its rational
    view.  ``points`` maps each exceptional over X to its point of X.
    Pairs compare and hash by identity.
    """

    __slots__ = ("model", "level", "delta", "decomposition", "ledger", "points",
                 "den")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    model: SurfaceModel
    level: int
    delta: RDivisor
    decomposition: ZariskiDecomposition
    ledger: dict[str, LedgerEntry]
    points: dict[str, LocusComponent]
    den: int


def make_pair(model: SurfaceModel, level: int, delta: RDivisor | None = None) -> PairSpec:
    """Validated pair constructor.

    Checks that Δ is effective and lives on curves of the chosen level,
    that -(K+Δ) is pseudoeffective against the catalog, and that the top
    level is log-resolution-ready for Supp Δ, Supp N and the exceptionals.

    -(K+Δ) is decomposed once, at the pair level, handed to the solve as
    the int class d·(-(K+Δ)) with its d, and pulled back to the top:
    Zariski decomposition commutes with pullback by a birational morphism
    of smooth surfaces (Fujita 1979; Bauer 2009), given distinct catalog
    curves that meet non-negatively, which ``make_base`` and the budget
    of ``blow_up`` keep at every level.
    """
    if delta is None:
        delta = RDivisor.make(level, {})
    _check_on_level(model, level, delta, "boundary")
    minus = [(cid, -c) for cid, c in delta.terms]
    low = zariski_decompose(  # raises NotPseudoeffectiveError
        model, level, *integral_class(model, level, -1, minus))
    n = total_transform(model, low.N)
    points = _points_over(model, level)
    if not validate(model, {*delta.support, *n.support, *points}):
        raise PairError("top level is not log-resolution-ready for this pair")
    den = _den(delta, n)
    a = _a_values(model, level, delta, den)
    sigma = _numerators(n, den)
    ledger = {}
    for cid in model.curves:
        sig = sigma.get(cid, 0)
        ledger[cid] = LedgerEntry(a[cid], sig, a[cid] - sig)
    return PairSpec(model, level, delta, low._replace(level=model.top, N=n),
                    ledger, points, den)


def _check_on_level(model: SurfaceModel, level: int, d: RDivisor, kind: str) -> None:
    """For Δ, a witness or an extra: at the pair level, on its curves, effective."""
    lvl = model.level(level)
    if d.level != level:
        raise PairError(f"{kind} divisor must live at the pair level")
    for cid in d.support:
        if not lvl.has_curve(cid):
            raise PairError(f"{kind} curve {cid!r} is not on level {level}")
    if not d.is_effective():
        raise PairError(f"{kind} divisor must be effective")


def anti_log_canonical(pair: PairSpec) -> DivisorClass:
    """−(K+Δ) at the pair level: make_pair's int class over its d, one
    ``quotient`` per coordinate."""
    D, d = integral_class(pair.model, pair.level, -1,
                          [(cid, -c) for cid, c in pair.delta.terms])
    return D._replace(terms={i: quotient(v, d) for i, v in D.terms.items()})


def _den(*divisors: RDivisor) -> int:
    """The lcm of the denominators of the divisors' coefficients."""
    return lcm(*[v.denominator for d in divisors for _, v in d.terms])


def _numerators(d: RDivisor, den: int) -> dict[str, int]:
    """d's coefficients times ``den``, a multiple of their denominators."""
    return {cid: v.numerator * (den // v.denominator) for cid, v in d.terms}


def _a_values(
    model: SurfaceModel, level: int, delta: RDivisor, den: int
) -> dict[str, int]:
    """Discrepancies of every top-level catalog curve over (level, Δ), as
    int numerators over ``den``, a multiple of Δ's denominators.

    Curves of X carry a = -mult_Δ; each exceptional created above X gets
    a = 1 + Σ m·a(C) over the curves through its center.
    """
    mult = _numerators(delta, den)
    a = {cid: -mult.get(cid, 0)
         for cid, c in model.curves.items() if c.born <= level}
    for center in model.centers[level:]:
        val = den
        for cid, m in center.on_curves:
            val += m * a[cid]
        a[center.exceptional_id] = val
    return a


class LedgerEntry(NamedTuple):
    """One top-level curve's row; the ledger keys it by curve id.  Int
    numerators over the pair's ``den`` in ``PairSpec.ledger``, canonical
    rationals in ``potential_ledger``."""

    a: int | Fraction
    sigma_num: int | Fraction
    pa: int | Fraction  # a − σ_num


def potential_ledger(pair: PairSpec) -> dict[str, LedgerEntry]:
    """a, σ_num and pa per top-level curve id, as canonical rationals."""
    den = pair.den
    return {cid: LedgerEntry(*(quotient(v, den) for v in e))
            for cid, e in pair.ledger.items()}


def total_potential_discrepancy(pair: PairSpec):
    """min(0, per-curve pa) when that is >= -1, else NEG_INFINITY."""
    m = min([0] + [e.pa for e in pair.ledger.values()])
    return quotient(m, pair.den) if m >= -pair.den else NEG_INFINITY


# ---------------------------------------------------------------------------
# loci


class LocusComponent(NamedTuple):
    kind: str  # "curve" | "point"
    ref: str  # curve id at the pair level, or a point label
    genus: int
    on_curves: frozenset[str] = frozenset()  # pair-level curves through a point

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.ref)


def _points_over(model: SurfaceModel, level: int) -> dict[str, LocusComponent]:
    """The point of X (level) under each exceptional over X, with the curves
    of X through it, in one pass up the centers above X: a center on no
    exceptional over X is its own point; one on some lies over the point of
    the earliest of them, and adds its own curves of X."""
    points: dict[str, LocusComponent] = {}
    for center in model.centers[level:]:
        over = [cid for cid, _ in center.on_curves if cid in points]
        through = frozenset(cid for cid, _ in center.on_curves if cid not in points)
        if over:
            first = points[min(over, key=lambda cid: model.curves[cid].born)]
            comp = first._replace(on_curves=first.on_curves | through)
        else:
            comp = LocusComponent("point", center.point_label, 0, through)
        points[center.exceptional_id] = comp
    return points


def _components(pair: PairSpec, curve_ids: Sequence[str]) -> list[LocusComponent]:
    """The components on X of the top-level curves ``curve_ids``, each once:
    a curve of X is its own, an exceptional over X its point."""
    curves, points = pair.model.curves, pair.points
    out: dict[tuple[str, str], LocusComponent] = {}
    for cid in curve_ids:
        comp = points.get(cid) or LocusComponent("curve", cid, curves[cid].genus)
        out.setdefault(comp.key, comp)
    return list(out.values())


class IncidenceGraph(NamedTuple):
    nodes: tuple[LocusComponent, ...]
    edges: tuple[tuple[int, int], ...]


def incidence_graph(pair: PairSpec, comps: Sequence[LocusComponent]) -> IncidenceGraph:
    """Edges join curves with positive intersection number at the pair
    level, and points to the curves they were declared to lie on."""
    lvl = pair.model.level(pair.level)
    nodes = tuple(comps)
    classes = {c.ref: lvl.curve(c.ref).cls for c in nodes if c.kind == "curve"}
    edges = []
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            b = nodes[j]
            if a.kind == b.kind == "curve":
                meets = intersect(classes[a.ref], classes[b.ref], lvl.form) > 0
            else:
                meets = a.kind != b.kind and (a.ref in b.on_curves
                                              or b.ref in a.on_curves)
            if meets:
                edges.append((i, j))
    return IncidenceGraph(nodes, tuple(edges))


def is_connected(graph: IncidenceGraph) -> bool:
    n = len(graph.nodes)
    if n <= 1:
        return True
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def nklt_locus(pair: PairSpec) -> list[LocusComponent]:
    limit = -pair.den
    return _components(pair, [cid for cid, e in pair.ledger.items() if e.a <= limit])


def eps_spnklt(pair: PairSpec, eps: int | Fraction) -> list[LocusComponent]:
    """Centers with pa <= -1 + ε.

    Infinitesimal centers add nothing beyond the listed curves: a free
    point on E_i has pa_i + 1 and a node has pa_i + pa_j + 1, and either
    threshold forces one of the carrying curves below -1 + ε already.
    No runtime check is needed, since both implications hold for every
    ε >= 0: pa_i + 1 <= -1 + ε gives pa_i < -1 + ε, and
    pa_i + pa_j + 1 <= -1 + ε gives min(pa_i, pa_j) <= -1 + ε/2.

    With ε = p/q, pa <= -1 + ε is pa·q <= (p − q)·den on the numerators.
    """
    eps = rat(eps)
    p, q = eps.numerator, eps.denominator
    if p < 0:
        raise ValueError("eps must be >= 0")
    limit = (p - q) * pair.den
    return _components(
        pair, [cid for cid, e in pair.ledger.items() if e.pa * q <= limit])


def pnklt_locus(pair: PairSpec) -> list[LocusComponent]:
    return eps_spnklt(pair, 0)


def eps_threshold(pair: PairSpec) -> int | Fraction | None:
    """Largest ε below which ε-spNklt equals pNklt: min(pa+1) over pa > -1."""
    den = pair.den
    vals = [e.pa for e in pair.ledger.values() if e.pa > -den]
    return quotient(min(vals) + den, den) if vals else None


# ---------------------------------------------------------------------------
# classification


class PotentialReport(NamedTuple):
    pair: PairSpec
    frakA: object  # int, Fraction or NEG_INFINITY
    nklt: tuple[LocusComponent, ...]
    pnklt: tuple[LocusComponent, ...]
    eps0: int | Fraction | None
    klt: bool
    lc: bool
    potentially_klt: bool
    potentially_lc: bool


def classify_pair(pair: PairSpec) -> PotentialReport:
    """The loci and flags of (X, Δ): (potentially) klt is Nklt (pNklt)
    empty, lc is a >= -1 on every curve, potentially lc a finite frakA."""
    frak = total_potential_discrepancy(pair)
    nklt = tuple(nklt_locus(pair))
    pnklt = tuple(pnklt_locus(pair))
    klt, p_klt = not nklt, not pnklt
    lc = all(e.a >= -pair.den for e in pair.ledger.values())
    p_lc = frak is not NEG_INFINITY

    # structural guarantees of the theory, checked even under python -O;
    # Nklt ⊆ pNklt below also gives potentially klt ⇒ klt
    _require(not p_lc or lc, "potentially-lc-implies-lc",
             "(X, Δ) is potentially lc but not lc")
    nklt_keys = {c.key for c in nklt}
    pnklt_keys = {c.key for c in pnklt}
    nnef_keys = {
        c.key
        for c in _components(pair, pair.decomposition.N.support)
    }
    stray = (nklt_keys - pnklt_keys) | (pnklt_keys - nklt_keys - nnef_keys)
    _require(not stray, "nklt-in-pnklt-in-nklt-or-nnef",
             "pNklt is not between Nklt and Nklt ∪ Nnef at "
             + ", ".join(f"{kind} {ref}" for kind, ref in sorted(stray)))
    if pair.decomposition.big:
        # Connectedness of pNklt under big -(K+Δ) is a theorem on the actual
        # surface; a failure here means the declared curve catalog is missing
        # a curve that joins the components (e.g. the fiber through a center
        # that was declared free), so the model is too coarse to trust.
        _require(
            is_connected(incidence_graph(pair, pnklt)),
            "pnklt-connected",
            "pNklt ("
            + ", ".join(f"{c.kind} {c.ref}" for c in pnklt)
            + ") is disconnected although -(K+Δ) is big: the curve catalog "
            "is missing a connecting curve",
        )

    return PotentialReport(
        pair,
        frak,
        nklt,
        pnklt,
        eps_threshold(pair),
        klt,
        lc,
        p_klt,
        p_lc,
    )


class FanoVerdict(NamedTuple):
    fano_type: bool
    reason: str
    big: bool | None = None
    negative_part: RDivisor | None = None
    xn_klt: bool | None = None


def fano_type_test(model: SurfaceModel, level: int) -> FanoVerdict:
    """Surface Fano-type test at ``level``: the verdict of the pair (X, 0).
    make_pair's one decomposition of -K at ``level`` is the gate: when -K
    is not pseudoeffective against the catalog there, X is not of Fano
    type."""
    try:
        pair = make_pair(model, level)
    except NotPseudoeffectiveError as exc:
        return FanoVerdict(False, f"-K is {exc}")
    return fano_verdict(classify_pair(pair))


def fano_verdict(report: PotentialReport) -> FanoVerdict:
    """X is of Fano type iff -K is big and X is potentially klt.

    Read off the classification of the pair (X, 0): N on X is the
    top-level N cut to the curves of X, as Zariski decomposition commutes
    with pullback.  The classical criterion, (X, N) klt, is pNklt(X, 0)
    empty: a(X, N) and pa(X, 0) both start at -mult_N C on the curves of X
    and run one recursion, v(E) = 1 + Σ m·v(C), up the centers.
    """
    pair = report.pair
    if not pair.delta.is_zero():
        raise PairError("the Fano-type test of a pair needs Δ = 0")
    model, level, big = pair.model, pair.level, pair.decomposition.big
    n = RDivisor(level, tuple((cid, c) for cid, c in pair.decomposition.N.terms
                              if model.curves[cid].born <= level))
    xn_klt = report.potentially_klt
    if not big:
        reason = "-K is not big against the catalog"
    elif not xn_klt:
        reason = "(X, N) is not klt"
    else:
        reason = "-K big and (X, N) klt"
    return FanoVerdict(big and xn_klt, reason, big, n, xn_klt)


# ---------------------------------------------------------------------------
# checkable lemmas


def check_monotonicity(
    pair: PairSpec, extra: RDivisor
) -> list[tuple[str, int | Fraction, int | Fraction]]:
    """Violations of pa(Δ) >= pa(Δ+extra), per curve.  Must come back empty.
    The two pairs' ``den``s may differ, so it reads their rational views."""
    if not extra.is_effective():
        raise PairError("extra boundary must be effective")
    _check_on_level(pair.model, pair.level, extra, "extra")
    bigger = potential_ledger(make_pair(pair.model, pair.level, pair.delta + extra))
    return [(cid, e.pa, bigger[cid].pa)
            for cid, e in potential_ledger(pair).items() if e.pa < bigger[cid].pa]


def check_intersection_limit(pair: PairSpec, deltas: Sequence[RDivisor]) -> dict:
    """For Δ_i decreasing to Δ: the pNklt chain must be decreasing with
    intersection pNklt(Δ), and stabilize to it at the end of the prefix."""
    chain = []
    for d in deltas:
        p = make_pair(pair.model, pair.level, d)
        chain.append({c.key for c in pnklt_locus(p)})
    limit = {c.key for c in pnklt_locus(pair)}
    decreasing = all(chain[i + 1] <= chain[i] for i in range(len(chain) - 1))
    meet = set.intersection(*chain) if chain else set()
    return {
        "chain": chain,
        "decreasing": decreasing,
        "intersection_equals_limit": meet == limit,
        "stabilizes": bool(chain) and chain[-1] == limit,
    }


def check_witness(pair: PairSpec, witness: RDivisor) -> dict:
    """Verify a user-supplied divisor D with f*D >= N: then the small-ε
    strictly-potentially-non-klt locus sits inside Nklt(X, Δ+D)."""
    model = pair.model
    _check_on_level(model, pair.level, witness, "witness")
    ft = dict(total_transform(model, witness).terms)
    n = dict(pair.decomposition.N.terms)
    dominates = all(ft.get(cid, 0) >= v for cid, v in n.items())
    result = {"dominates": dominates, "inclusion_holds": None, "eps": None}
    if not dominates:
        return result
    eps0 = eps_threshold(pair)
    eps = quotient(eps0, 2) if eps0 is not None and eps0 > 0 else 0
    locus = {c.key for c in eps_spnklt(pair, eps)}
    # Nklt(X, Δ+D) needs no pseudoeffectivity: discrepancies only
    boundary = pair.delta + witness
    den = _den(boundary)
    a2 = _a_values(model, pair.level, boundary, den)
    nklt2 = {
        c.key for c in _components(pair, [cid for cid, v in a2.items() if v <= -den])
    }
    result["inclusion_holds"] = locus <= nklt2
    result["eps"] = eps
    return result
