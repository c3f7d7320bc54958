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
from typing import NamedTuple, Sequence

from .lattice import intersect, quotient, rat
from .surface import (
    RDivisor,
    Record,
    SurfaceModel,
    display_name,
    pull_back,
    push_forward,
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

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"


NEG_INFINITY = _NegInfinity()


class PairSpec(Record):
    """A validated pair (X, Δ) with its analysis, computed once by make_pair.

    ``decomposition`` is the Zariski decomposition of f*(-(K+Δ)) at the
    top level of the tower, pulled back from the pair level: P = f*P_X
    and N = f*N_X.  ``ledger`` holds a, σ_num and pa per top-level curve.
    Pairs compare and hash by identity.
    """

    __slots__ = ("model", "level", "delta", "decomposition", "ledger", "big")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    model: SurfaceModel
    level: int
    delta: RDivisor
    decomposition: ZariskiDecomposition
    ledger: DiscrepancyLedger
    big: bool  # -(K+Δ) is big: P² > 0, which the pullback to the top keeps


def make_pair(model: SurfaceModel, level: int, delta: RDivisor | None = None) -> PairSpec:
    """Validated pair constructor.

    Checks that Δ is effective and lives on curves of the chosen level,
    that -(K+Δ) is pseudoeffective against the catalog, and that the top
    level is log-resolution-ready for Supp Δ, Supp N and the exceptionals.

    -(K+Δ) is decomposed once, at the pair level, and pulled back to the
    top: Zariski decomposition commutes with pullback by a birational
    morphism of smooth surfaces (Fujita 1979; Bauer 2009), given distinct
    catalog curves that meet non-negatively, which ``make_base`` and the
    budget of ``blow_up`` keep at every level.
    """
    lvl = model.level(level)
    if delta is None:
        delta = RDivisor.make(level, {})
    if delta.level != level:
        raise PairError("boundary divisor must live at the pair level")
    for cid in delta.support:
        if not lvl.has_curve(cid):
            raise PairError(f"boundary curve {cid!r} is not on level {level}")
    if not delta.is_effective():
        raise PairError("boundary divisor must be effective")
    low = zariski_decompose(  # raises NotPseudoeffectiveError
        model, level, -(lvl.canonical + delta.class_at(model)))
    n = total_transform(model, low.N)
    zd = ZariskiDecomposition(model.top,
                              pull_back(model, level, model.top, low.P),
                              n, low.big)
    supports = set(delta.support) | set(n.support)
    supports |= {c.id for c in model.curves.values() if c.born > level}
    if not validate(model, supports):
        raise PairError("top level is not log-resolution-ready for this pair")
    a = _a_values(model, level, delta)
    sigma = dict(n.terms)
    entries = []
    for cid, c in model.curves.items():
        sig = sigma.get(cid, 0)
        display = display_name(cid, c.born, model.top)
        entries.append(LedgerEntry(cid, display, a[cid], sig, a[cid] - sig))
    ledger = DiscrepancyLedger(tuple(entries))
    return PairSpec(model, level, delta, zd, ledger, zd.big)


def anti_log_canonical(pair: PairSpec):
    lvl = pair.model.level(pair.level)
    return -(lvl.canonical + pair.delta.class_at(pair.model))


def _a_values(
    model: SurfaceModel, level: int, delta: RDivisor
) -> dict[str, int | Fraction]:
    """Discrepancies of every top-level catalog curve over (level, Δ).

    Curves of X carry a = -mult_Δ; each exceptional created above X gets
    a = 1 + Σ m·a(C) over the curves through its center.  Ints unless Δ
    has a rational coefficient.
    """
    mult = dict(delta.terms)
    a = {cid: -mult.get(cid, 0)
         for cid, c in model.curves.items() if c.born <= level}
    for center in model.centers[level:]:
        val = 1
        for cid, m in center.on_curves:
            val += m * a[cid]
        a[center.exceptional_id] = val
    return a


class LedgerEntry(NamedTuple):
    curve_id: str
    display: str
    a: int | Fraction
    sigma_num: int | Fraction
    pa: int | Fraction  # a − σ_num


class DiscrepancyLedger(NamedTuple):
    entries: tuple[LedgerEntry, ...]

    def get(self, cid: str) -> LedgerEntry:
        for e in self.entries:
            if e.curve_id == cid:
                return e
        raise KeyError(cid)

    def min_pa(self) -> int | Fraction:
        return min([0] + [e.pa for e in self.entries])


def potential_ledger(pair: PairSpec) -> DiscrepancyLedger:
    """a, σ_num and pa per top-level curve, as computed by make_pair."""
    return pair.ledger


def total_potential_discrepancy(pair: PairSpec):
    """min(0, per-curve pa) when that is >= -1, else NEG_INFINITY."""
    m = pair.ledger.min_pa()
    return m if m >= -1 else NEG_INFINITY


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


def _point_descriptor(pair: PairSpec, cid: str) -> tuple[str, frozenset[str]]:
    """Image point on X of a contracted tower curve, plus the X-curves through it."""
    curves = pair.model.curves
    k = curves[cid].born
    through: set[str] = set()
    while True:
        center = pair.model.centers[k - 1]
        parents = []
        for oid, _ in center.on_curves:
            born = curves[oid].born
            if born <= pair.level:
                through.add(oid)
            else:
                parents.append(born)
        if not parents:
            return center.point_label, frozenset(through)
        k = min(parents)


def _component_for(pair: PairSpec, cid: str) -> LocusComponent:
    c = pair.model.curves[cid]
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


class IncidenceGraph(NamedTuple):
    nodes: tuple[LocusComponent, ...]
    edges: tuple[tuple[int, int], ...]


def incidence_graph(pair: PairSpec, comps: Sequence[LocusComponent]) -> IncidenceGraph:
    """Edges join curves with positive intersection number at the pair
    level, and points to the curves they were declared to lie on."""
    lvl = pair.model.level(pair.level)
    nodes = tuple(comps)
    edges = []
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            b = nodes[j]
            if a.kind == "curve" and b.kind == "curve":
                num = intersect(
                    lvl.curve(a.ref).cls, lvl.curve(b.ref).cls, lvl.form
                )
                if num > 0:
                    edges.append((i, j))
            elif a.kind == "curve" and b.kind == "point":
                if a.ref in b.on_curves:
                    edges.append((i, j))
            elif a.kind == "point" and b.kind == "curve":
                if b.ref in a.on_curves:
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
    return _components(
        pair, [e.curve_id for e in pair.ledger.entries if e.a <= -1]
    )


def eps_spnklt(pair: PairSpec, eps: int | Fraction) -> list[LocusComponent]:
    """Centers with pa <= -1 + ε.

    Infinitesimal centers add nothing beyond the listed curves: a free
    point on E_i has pa_i + 1 and a node has pa_i + pa_j + 1, and either
    threshold forces one of the carrying curves below -1 + ε already.
    No runtime check is needed, since both implications hold for every
    ε >= 0: pa_i + 1 <= -1 + ε gives pa_i < -1 + ε, and
    pa_i + pa_j + 1 <= -1 + ε gives min(pa_i, pa_j) <= -1 + ε/2.
    """
    eps = rat(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    limit = -1 + eps
    return _components(
        pair, [e.curve_id for e in pair.ledger.entries if e.pa <= limit]
    )


def pnklt_locus(pair: PairSpec) -> list[LocusComponent]:
    return eps_spnklt(pair, 0)


def eps_threshold(pair: PairSpec) -> int | Fraction | None:
    """Largest ε below which ε-spNklt equals pNklt: min(pa+1) over pa > -1."""
    vals = [e.pa + 1 for e in pair.ledger.entries if e.pa > -1]
    return min(vals) if vals else None


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
    pushforward of the top-level N, since Zariski decomposition commutes
    with pullback, and a(X, N) = pa(X, 0) on every top-level curve.  The
    classical criterion, (X, N) klt, is that arithmetic alone and must
    agree with the pair's potentially-klt flag.
    """
    pair = report.pair
    if not pair.delta.is_zero():
        raise PairError("the Fano-type test of a pair needs Δ = 0")
    model, level, big = pair.model, pair.level, pair.big
    n = push_forward(model, model.top, level, pair.decomposition.N)
    xn_klt = all(a > -1 for a in _a_values(model, level, n).values())
    _require(xn_klt == report.potentially_klt, "dim-2-klt-equivalence",
             f"(X, N) has klt {xn_klt} but X has potentially klt "
             f"{report.potentially_klt}")
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
    a2 = _a_values(model, pair.level, pair.delta + witness)
    nklt2 = {
        c.key for c in _components(pair, [cid for cid, v in a2.items() if v <= -1])
    }
    result["inclusion_holds"] = locus <= nklt2
    result["eps"] = eps
    return result
