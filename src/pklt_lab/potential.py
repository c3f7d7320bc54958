"""Discrepancies, potential discrepancies and pair classification.

For a pair (X, Δ) presented as a level of a blow-up tower with the top
level acting as a log resolution, this module computes per-curve
discrepancies a, the negative-part multiplicities of the pulled-back
anti-log-canonical class, the potential discrepancies pa = a - sigma,
the total potential discrepancy, the Nklt / pNklt / ε-spNklt loci and
the derived classification flags, plus the surface Fano-type test.

The infimum over all divisorial valuations reduces to a finite minimum:
with nef positive part at the top level, blowing up a free point of a
curve sends pa to pa + 1 and blowing up a node to pa_i + pa_j + 1, so
the infimum is min(0, per-curve pa) when that is >= -1 and diverges to
-infinity otherwise.  The test suite re-derives this recursion on real
towers rather than trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import intersect
from .surface import (
    RDivisor,
    SurfaceModel,
    pull_back,
    push_forward,
    total_transform,
    validate,
)
from .zariski import (
    NotPseudoeffectiveError,
    ZariskiDecomposition,
    zariski_decompose,
)


class PairError(ValueError):
    """The pair does not satisfy its standing hypotheses."""


class InvariantViolation(Exception):
    """A structural guarantee of the theory fails on this model.

    Each holds as a theorem on the actual surface, so a failure means the
    declared curve catalog is incomplete, e.g. it lacks the fiber through a
    center declared free.  ``invariant`` names the guarantee.  Not a
    ValueError: it is neither a bad pair nor a non-pseudoeffective divisor.
    """

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"{invariant}: {detail}")


def _require(holds: bool, invariant: str, detail: str) -> None:
    if not holds:
        raise InvariantViolation(invariant, detail)


class _NegInfinity:
    """Total potential discrepancy sentinel for divergence to -infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"


NEG_INFINITY = _NegInfinity()


@dataclass(frozen=True, eq=False)
class PairSpec:
    """A validated pair (X, Δ) with its analysis, computed once by make_pair.

    ``decomposition`` is the Zariski decomposition of f*(-(K+Δ)) at the
    top level of the tower; ``ledger`` holds a, σ_num and pa per top-level
    curve.  Pairs compare and hash by identity.
    """

    model: SurfaceModel
    level: int
    delta: RDivisor
    decomposition: ZariskiDecomposition
    ledger: DiscrepancyLedger

    @property
    def big(self) -> bool:
        """-(K+Δ) is big: P² > 0, which the pullback to the top level keeps."""
        p = self.decomposition.P
        return intersect(p, p, self.model.levels[-1].form) > 0


def make_pair(model: SurfaceModel, level: int, delta: RDivisor | None = None) -> PairSpec:
    """Validated pair constructor.

    Checks that Δ is effective and lives on curves of the chosen level,
    that -(K+Δ) is pseudoeffective against the catalog, and that the top
    level is log-resolution-ready for Supp Δ, Supp N and the exceptionals.
    """
    lvl = model.level(level)
    if delta is None:
        delta = RDivisor.make(level, {})
    if delta.level != level:
        raise PairError("boundary divisor must live at the pair level")
    if not delta.is_effective():
        raise PairError("boundary divisor must be effective")
    for cid in delta.support:
        if lvl.curve(cid).born > level:
            raise PairError(f"boundary curve {cid!r} does not exist at level {level}")
    d_top = pull_back(
        model, level, model.top, -(lvl.canonical + delta.class_at(model))
    )
    zd = zariski_decompose(model, model.top, d_top)  # raises NotPseudoeffectiveError
    top = model.levels[-1]
    supports = set(delta.support) | set(zd.N.support)
    supports |= {c.id for c in top.curves if c.born > level}
    report = validate(model, sorted(supports))
    if not report.valid:
        raise PairError("; ".join(report.violations))
    if not report.log_resolution_ready:
        raise PairError("top level is not log-resolution-ready for this pair")
    a = _a_values(model, level, delta)
    ledger = DiscrepancyLedger(tuple(
        LedgerEntry(c.id, c.display, a[c.id], zd.N.coeff(c.id))
        for c in top.curves
    ))
    return PairSpec(model, level, delta, zd, ledger)


def anti_log_canonical(pair: PairSpec):
    lvl = pair.model.level(pair.level)
    return -(lvl.canonical + pair.delta.class_at(pair.model))


def _a_values(model: SurfaceModel, level: int, delta: RDivisor) -> dict[str, Fraction]:
    """Discrepancies of every top-level catalog curve over (level, Δ).

    Curves of X carry a = -mult_Δ; each exceptional created above X gets
    a = 1 + Σ m·a(C) over the curves through its center.
    """
    a: dict[str, Fraction] = {}
    for c in model.level(level).curves:
        a[c.id] = -delta.coeff(c.id)
    for k in range(level + 1, model.top + 1):
        center = model.level(k).center
        assert center is not None
        val = Fraction(1)
        for cid, m in center.effective_incidences():
            val += m * a[cid]
        a[center.exceptional_id] = val
    return a


@dataclass(frozen=True)
class LedgerEntry:
    curve_id: str
    display: str
    a: Fraction
    sigma_num: Fraction

    @property
    def pa(self) -> Fraction:
        return self.a - self.sigma_num


@dataclass(frozen=True)
class DiscrepancyLedger:
    entries: tuple[LedgerEntry, ...]

    def get(self, cid: str) -> LedgerEntry:
        for e in self.entries:
            if e.curve_id == cid:
                return e
        raise KeyError(cid)

    def min_pa(self) -> Fraction:
        return min(
            [Fraction(0)] + [e.pa for e in self.entries]
        )


def discrepancies(pair: PairSpec) -> dict[str, Fraction]:
    return _a_values(pair.model, pair.level, pair.delta)


def potential_ledger(pair: PairSpec) -> DiscrepancyLedger:
    """a, σ_num and pa per top-level curve, as computed by make_pair."""
    return pair.ledger


def total_potential_discrepancy(pair: PairSpec):
    """min(0, per-curve pa) when that is >= -1, else NEG_INFINITY."""
    m = pair.ledger.min_pa()
    return m if m >= -1 else NEG_INFINITY


# ---------------------------------------------------------------------------
# loci


@dataclass(frozen=True)
class LocusComponent:
    kind: str  # "curve" | "point"
    ref: str  # curve id at the pair level, or a point label
    genus: int
    on_curves: frozenset[str] = frozenset()  # pair-level curves through a point

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.ref)


def _point_descriptor(pair: PairSpec, cid: str) -> tuple[str, frozenset[str]]:
    """Image point on X of a contracted tower curve, plus the X-curves through it."""
    model = pair.model
    k = model.levels[-1].curve(cid).born
    through: set[str] = set()
    while True:
        center = model.level(k).center
        assert center is not None
        parents = []
        for oid, _ in center.effective_incidences():
            born = model.level(k - 1).curve(oid).born
            if born <= pair.level:
                through.add(oid)
            else:
                parents.append(born)
        if not parents:
            return center.point_label, frozenset(through)
        k = min(parents)


def _component_for(pair: PairSpec, cid: str) -> LocusComponent:
    c = pair.model.levels[-1].curve(cid)
    if c.born <= pair.level:
        return LocusComponent("curve", cid, c.genus)
    label, through = _point_descriptor(pair, cid)
    return LocusComponent("point", label, 0, through)


def _components(pair: PairSpec, curve_ids: Sequence[str]) -> list[LocusComponent]:
    seen = set()
    out = []
    for cid in curve_ids:
        comp = _component_for(pair, cid)
        if comp.key not in seen:
            seen.add(comp.key)
            out.append(comp)
    return out


def nklt_locus(pair: PairSpec) -> list[LocusComponent]:
    return _components(
        pair, [e.curve_id for e in pair.ledger.entries if e.a <= -1]
    )


def eps_spnklt(pair: PairSpec, eps: Fraction) -> list[LocusComponent]:
    """Centers with pa <= -1 + ε.

    Infinitesimal centers add nothing beyond the listed curves: a free
    point on E_i has pa_i + 1 and a node has pa_i + pa_j + 1, and either
    threshold forces one of the carrying curves below -1 + ε already.
    No runtime check is needed, since both implications hold for every
    ε >= 0: pa_i + 1 <= -1 + ε gives pa_i < -1 + ε, and
    pa_i + pa_j + 1 <= -1 + ε gives min(pa_i, pa_j) <= -1 + ε/2.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return _components(
        pair, [e.curve_id for e in pair.ledger.entries if e.pa <= -1 + eps]
    )


def pnklt_locus(pair: PairSpec) -> list[LocusComponent]:
    return eps_spnklt(pair, Fraction(0))


def eps_threshold(pair: PairSpec) -> Fraction | None:
    """Largest ε below which ε-spNklt equals pNklt: min(pa+1) over pa > -1."""
    vals = [e.pa + 1 for e in pair.ledger.entries if e.pa > -1]
    return min(vals) if vals else None


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class PotentialReport:
    pair: PairSpec
    ledger: DiscrepancyLedger
    frakA: object  # Fraction or NEG_INFINITY
    nklt: tuple[LocusComponent, ...]
    pnklt: tuple[LocusComponent, ...]
    eps0: Fraction | None
    klt: bool
    lc: bool
    potentially_klt: bool
    potentially_lc: bool


def classify_pair(pair: PairSpec) -> PotentialReport:
    ledger = pair.ledger
    frak = total_potential_discrepancy(pair)
    nklt = tuple(nklt_locus(pair))
    pnklt = tuple(pnklt_locus(pair))
    klt = all(e.a > -1 for e in ledger.entries)
    lc = all(e.a >= -1 for e in ledger.entries)
    p_klt = frak is not NEG_INFINITY and frak > -1
    p_lc = frak is not NEG_INFINITY and frak >= -1

    # structural guarantees of the theory, checked even under python -O
    _require(not p_klt or klt, "potentially-klt-implies-klt",
             "(X, Δ) is potentially klt but not klt")
    _require(not p_lc or lc, "potentially-lc-implies-lc",
             "(X, Δ) is potentially lc but not lc")
    _require(p_klt == (not pnklt), "potentially-klt-iff-empty-pnklt",
             f"potentially klt is {p_klt} with {len(pnklt)} pNklt components")
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
    if pair.big:
        from . import rcc  # deferred: rcc builds on this module

        # Connectedness of pNklt under big -(K+Δ) is a theorem on the actual
        # surface; a failure here means the declared curve catalog is missing
        # a curve that joins the components (e.g. the fiber through a center
        # that was declared free), so the model is too coarse to trust.
        _require(
            rcc.is_connected(rcc.incidence_graph(pair, list(pnklt))),
            "pnklt-connected",
            "pNklt ("
            + ", ".join(f"{c.kind} {c.ref}" for c in pnklt)
            + ") is disconnected although -(K+Δ) is big: the curve catalog "
            "is missing a connecting curve",
        )

    return PotentialReport(
        pair,
        ledger,
        frak,
        nklt,
        pnklt,
        eps_threshold(pair),
        klt,
        lc,
        p_klt,
        p_lc,
    )


@dataclass(frozen=True)
class FanoVerdict:
    fano_type: bool
    reason: str
    big: bool | None = None
    negative_part: RDivisor | None = None
    xn_klt: bool | None = None


def fano_type_test(model: SurfaceModel, level: int) -> FanoVerdict:
    """Surface Fano-type criterion: -K big and (X, N) klt, with N the
    negative part of -K.  Cross-checked against the potentially-klt flag
    of (X, N), which agrees in dimension 2."""
    lvl = model.level(level)
    try:
        zd = zariski_decompose(model, level, -lvl.canonical)
    except NotPseudoeffectiveError as exc:
        return FanoVerdict(False, f"-K is {exc}")
    big = intersect(zd.P, zd.P, lvl.form) > 0
    return _fano_verdict(model, level, zd.N, big)


def fano_type_of_pair(pair: PairSpec) -> FanoVerdict:
    """fano_type_test(pair.model, pair.level) for a pair with Δ = 0, read off
    the decomposition of f*(-K) that make_pair already holds: N on X is its
    pushforward, since f_*f^*N = N, and -K is big when the pair is."""
    if not pair.delta.is_zero():
        raise PairError("the Fano-type test of a pair needs Δ = 0")
    model = pair.model
    n = push_forward(model, model.top, pair.level, pair.decomposition.N)
    return _fano_verdict(model, pair.level, n, pair.big)


def _fano_verdict(
    model: SurfaceModel, level: int, n: RDivisor, big: bool
) -> FanoVerdict:
    """The verdict once N, the negative part of -K at ``level``, is known."""
    report = classify_pair(make_pair(model, level, n))
    _require(report.klt == report.potentially_klt, "dim-2-klt-equivalence",
             f"(X, N) has klt {report.klt} but potentially klt "
             f"{report.potentially_klt}")
    if not big:
        reason = "-K is not big against the catalog"
    elif not report.klt:
        reason = "(X, N) is not klt"
    else:
        reason = "-K big and (X, N) klt"
    return FanoVerdict(big and report.klt, reason, big, n, report.klt)


# ---------------------------------------------------------------------------
# checkable lemmas


def check_monotonicity(
    pair: PairSpec, extra: RDivisor
) -> list[tuple[str, Fraction, Fraction]]:
    """Violations of pa(Δ) >= pa(Δ+extra), per curve.  Must come back empty."""
    if not extra.is_effective():
        raise PairError("extra boundary must be effective")
    bigger = make_pair(pair.model, pair.level, pair.delta + extra)
    out = []
    for e1, e2 in zip(pair.ledger.entries, bigger.ledger.entries):
        if e1.pa < e2.pa:
            out.append((e1.curve_id, e1.pa, e2.pa))
    return out


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
    if witness.level != pair.level:
        raise PairError("witness must live at the pair level")
    if not witness.is_effective():
        raise PairError("witness must be effective")
    model = pair.model
    ft = total_transform(model, witness)
    n = pair.decomposition.N
    dominates = all(
        ft.coeff(c.id) >= n.coeff(c.id) for c in model.levels[-1].curves
    )
    result = {"dominates": dominates, "inclusion_holds": None, "eps": None}
    if not dominates:
        return result
    eps0 = eps_threshold(pair)
    eps = eps0 / 2 if eps0 is not None and eps0 > 0 else Fraction(0)
    locus = {c.key for c in eps_spnklt(pair, eps)}
    # Nklt(X, Δ+D) needs no pseudoeffectivity: discrepancies only
    a2 = _a_values(model, pair.level, pair.delta + witness)
    nklt2 = {
        c.key for c in _components(pair, [cid for cid, v in a2.items() if v <= -1])
    }
    result["inclusion_holds"] = locus <= nklt2
    result["eps"] = eps
    return result
