"""Smooth projective surfaces presented as blow-up towers.

A model is a base surface (P², a ruled surface, or a user-supplied
Néron–Severi lattice) together with an ordered list of blow-ups at
combinatorial centers.  Points carry no coordinates: a center is
described by incidence (which catalog curves pass through it, with what
multiplicity) and every pair of curves has an intersection-point budget
enforced from their intersection number.
"""

from __future__ import annotations

import functools
import itertools
import zlib
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .lattice import (
    DivisorClass,
    IntersectionForm,
    basis_class,
    intersect,
    quotient,
    rat,
    signature,
)


class ModelError(ValueError):
    """Invalid model construction (unknown curves, budget overruns, ...).

    ``center`` is the index, in the sequence given to ``blow_up``, of the
    center that failed; ``curve`` the index, in the base catalog, of a
    curve that ``make_base`` rejects for its id or its genus.  None for an
    error raised anywhere else."""

    center: int | None = None
    curve: int | None = None


# ---------------------------------------------------------------------------
# base specs


class Record:
    """Base of the records that cannot be NamedTuples.  The constructor
    takes the fields that ``__slots__`` names, in order; assigning to one
    later raises AttributeError.  Records of one type compare and hash by
    their fields, and may be weakly referenced."""

    __slots__ = ("__weakref__",)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"


class ProjectivePlane(Record):
    """P² with basis {L}, gram [[1]], K = -3L.  A Record, not a NamedTuple,
    which would be an empty tuple: false, and equal to ()."""

    __slots__ = ()

    def lattice_tag(self) -> str:
        return "P2"


class Ruled(NamedTuple("Ruled", [("genus", int), ("e", int)])):
    """Ruled surface over a genus-g curve with normalized section C0² = -e.

    Basis {C0, f}, gram [[-e, 1], [1, 0]], K = -2·C0 + (2g-2-e)·f.
    The catalog contains exactly C0 (genus g) and a fiber f (genus 0).
    """

    __slots__ = ()

    def __new__(cls, genus: int, e: int):
        if genus < 0:
            raise ModelError("ruled surface needs genus >= 0")
        if e <= 0:
            raise ModelError("ruled surface needs invariant e > 0")
        return super().__new__(cls, genus, e)

    def lattice_tag(self) -> str:
        return f"ruled(g={self.genus},e={self.e})"


class CurveSpec(NamedTuple):
    id: str
    coeffs: tuple[int | Fraction, ...]
    genus: int


class AbstractLattice(NamedTuple):
    """User-supplied ambient lattice with canonical class and curve catalog."""

    basis: tuple[str, ...]
    gram: tuple[tuple[int | Fraction, ...], ...]
    canonical: tuple[int | Fraction, ...]
    curves: tuple[CurveSpec, ...]

    def lattice_tag(self) -> str:
        crc = zlib.crc32(repr((self.basis, self.gram, self.canonical)).encode())
        return f"lattice({crc:08x})"


BaseSpec = ProjectivePlane | Ruled | AbstractLattice


# ---------------------------------------------------------------------------
# tower data


class Curve(NamedTuple):
    """A catalog curve at tower level ``level``, with its class there."""

    id: str
    cls: DivisorClass
    genus: int
    born: int  # tower level at which this curve first appears
    level: int

    @property
    def origin(self) -> str | None:
        """The curve this one is the strict transform of."""
        return self.id if self.level > self.born else None

    @property
    def display(self) -> str:
        """Printable name at this level."""
        return display_name(self.id, self.born, self.level)


def display_name(cid: str, born: int, level: int) -> str:
    """Printable name at ``level`` of the curve ``cid`` born at ``born``:
    above its birth it is a strict transform, which carries a trailing '~'."""
    return cid + "~" if level > born else cid


class BlowUpCenter(NamedTuple):
    """A combinatorial point: incidences with multiplicities.

    ``near`` marks an infinitely-near point on the named exceptional; it
    is equivalent to listing that exceptional with multiplicity 1.
    """

    on_curves: tuple[tuple[str, int], ...] = ()
    near: str | None = None
    point_label: str = ""
    exceptional_id: str | None = None

    def effective_incidences(self) -> tuple[tuple[str, int], ...]:
        pairs: dict[str, int] = {}
        for cid, m in self.on_curves:
            if m < 1:
                raise ModelError(f"multiplicity must be >= 1 on {cid!r}")
            if cid in pairs:
                raise ModelError(f"center lists curve {cid!r} more than once")
            pairs[cid] = m
        if self.near is not None and self.near not in pairs:
            pairs[self.near] = 1
        return tuple(sorted(pairs.items()))


class SurfaceModel(Record):
    """A base (as a lattice), the centers blown up over it, one curve table.

    Level k's basis is the base basis then E1..Ek, so a class keeps its
    coordinates up the tower.  ``curves`` maps each id, in catalog order,
    to the curve at its last change (birth, or the last center through it).
    ``blow_up`` stores each center with every incidence, ``near`` included,
    in ``on_curves``.  A Record: a tuple cannot be weakly referenced.
    """

    __slots__ = ("base", "tag", "lattice", "centers", "curves")
    base: BaseSpec
    tag: str  # level k's lattice id is f"{tag}/{k}"
    lattice: AbstractLattice
    centers: tuple[BlowUpCenter, ...]
    curves: dict[str, Curve]

    @property
    def top(self) -> int:
        return len(self.centers)

    @property
    def levels(self) -> tuple["Level", ...]:
        return tuple(Level(self, k) for k in range(self.top + 1))

    def level(self, k: int) -> "Level":
        if not 0 <= k <= self.top:
            raise ModelError(f"level {k} out of range (tower has {self.top + 1})")
        return Level(self, k)


class Level:
    """Level k of a tower: the curves born at or below k, each with its
    class cut to level k's lattice, the first rank(k) coordinates."""

    def __init__(self, model: SurfaceModel, k: int):
        self.model = model
        self.k = k
        self.form = IntersectionForm(f"{model.tag}/{k}", model.lattice.gram, k)
        self.center = model.centers[k - 1] if k else None

    @property
    def canonical(self) -> DivisorClass:
        """K₀ + E1 + ... + Ek (Hartshorne V.3.3)."""
        coeffs = tuple(self.model.lattice.canonical) + (1,) * self.k
        return DivisorClass.dense(coeffs, self.form.lattice_id)

    @property
    def basis_labels(self) -> tuple[str, ...]:
        centers = self.model.centers[: self.k]
        return self.model.lattice.basis + tuple(c.exceptional_id for c in centers)

    def _at(self, c: Curve) -> Curve:
        if c.level == self.k:
            return c
        rank, terms = self.form.rank, c.cls.terms
        if c.level > self.k:
            terms = {i: v for i, v in terms.items() if i < rank}
        cls = DivisorClass(terms, rank, self.form.lattice_id)
        return Curve(c.id, cls, c.genus, c.born, self.k)

    @functools.cached_property
    def curves(self) -> tuple[Curve, ...]:
        return tuple(
            self._at(c) for c in self.model.curves.values() if c.born <= self.k
        )

    def has_curve(self, cid: str) -> bool:
        return cid in self.model.curves and self.model.curves[cid].born <= self.k

    def curve(self, cid: str) -> Curve:
        if not self.has_curve(cid):
            raise ModelError(f"unknown curve {cid!r}")
        return self._at(self.model.curves[cid])


class RDivisor(NamedTuple):
    """Finitely supported rational combination of catalog curves."""

    level: int
    terms: tuple[tuple[str, int | Fraction], ...]

    @staticmethod
    def make(level: int, mapping: Mapping[str, object] | Iterable = ()) -> "RDivisor":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        merged: dict[str, int | Fraction] = {}
        for cid, c in items:
            c = rat(c)
            merged[cid] = rat(merged[cid] + c) if cid in merged else c
        terms = tuple(sorted((k, v) for k, v in merged.items() if v != 0))
        return RDivisor(level, terms)

    def coeff(self, cid: str) -> int | Fraction:
        for k, v in self.terms:
            if k == cid:
                return v
        return 0

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.terms)

    def is_effective(self) -> bool:
        return all(v >= 0 for _, v in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RDivisor") -> "RDivisor":
        if self.level != other.level:
            raise ModelError("cannot add divisors at different levels")
        return RDivisor.make(self.level, list(self.terms) + list(other.terms))

    def scale(self, r) -> "RDivisor":
        r = rat(r)
        return RDivisor.make(self.level, [(k, r * v) for k, v in self.terms])

    def class_at(self, model: SurfaceModel) -> DivisorClass:
        lvl = model.level(self.level)
        return DivisorClass({}, lvl.form.rank, lvl.form.lattice_id).plus(
            (c, lvl.curve(cid).cls) for cid, c in self.terms
        )


# ---------------------------------------------------------------------------
# construction


def _check_id(cid: str, what: str) -> None:
    """A trailing '~' marks a strict transform in printed names, so no
    curve id may end in one: it would print as another curve."""
    if cid.endswith("~"):
        raise ModelError(
            f"{what} {cid!r} ends in '~', which marks a strict transform")


def _check_genus(
    c: Curve, canonical: DivisorClass, form: IntersectionForm
) -> None:
    """The arithmetic genus p_a = 1 + (K·C + C²)/2 of a catalog curve C
    (Hartshorne V.1.5) is an integer and at least its geometric genus."""
    pa = 1 + quotient(
        intersect(canonical, c.cls, form) + intersect(c.cls, c.cls, form), 2)
    if type(pa) is not int:
        raise ModelError(
            f"curve {c.id!r} has arithmetic genus 1 + (K.C + C.C)/2 = {pa}, "
            f"not an integer")
    if pa < c.genus:
        raise ModelError(
            f"curve {c.id!r} has genus {c.genus} above its arithmetic genus "
            f"1 + (K.C + C.C)/2 = {pa}")


def make_base(spec: BaseSpec) -> SurfaceModel:
    """The one-level tower over ``spec``.  Its lattice holds the forms, K
    and the catalog classes with every integral entry as an int, so that
    intersection numbers are ints; the lattice id is the spec's tag.

    Each catalog curve needs an id that does not end in '~' and an
    integral arithmetic genus at least its declared genus; a failure sets
    ``ModelError.curve``.  Distinct catalog curves must meet
    non-negatively, as on any surface: a lattice catalog with Cᵢ·Cⱼ < 0 is
    rejected, naming the first such pair.  P² (L alone) and ruled bases
    (C0·f = 1) always pass, and the budget of ``blow_up`` keeps the
    condition at every later level."""
    if isinstance(spec, ProjectivePlane):
        lattice = AbstractLattice(("L",), ((1,),), (-3,),
                                  (CurveSpec("L", (1,), 0),))
    elif isinstance(spec, Ruled):
        g, e = spec.genus, spec.e
        lattice = AbstractLattice(
            ("C0", "f"), ((-e, 1), (1, 0)), (-2, 2 * g - 2 - e),
            (CurveSpec("C0", (1, 0), g), CurveSpec("f", (0, 1), 0)))
    elif isinstance(spec, AbstractLattice):
        rank = len(spec.gram)
        try:
            sig = signature(spec.gram)
        except ValueError as exc:  # not square, or not symmetric
            raise ModelError(f"lattice gram {exc}")
        if sig != (1, rank - 1, 0):
            raise ModelError(
                "lattice gram matrix must have signature (1, rank-1)"
            )
        if len(spec.basis) != rank:
            raise ModelError("basis label count must equal rank")
        for i, label in enumerate(spec.basis):
            if label in spec.basis[:i]:
                raise ModelError(f"duplicate basis label {label!r}")
        if len(spec.canonical) != rank:
            raise ModelError("canonical class length must equal rank")
        seen: set[str] = set()
        for cs in spec.curves:
            if cs.id in seen:
                raise ModelError(f"duplicate curve id {cs.id!r}")
            seen.add(cs.id)
            if len(cs.coeffs) != rank:
                raise ModelError(f"curve {cs.id!r} class length must equal rank")
            if cs.genus < 0:
                raise ModelError(f"curve {cs.id!r} needs genus >= 0")
        lattice = AbstractLattice(
            spec.basis, tuple(tuple(map(rat, row)) for row in spec.gram),
            tuple(map(rat, spec.canonical)),
            tuple(cs._replace(coeffs=tuple(map(rat, cs.coeffs)))
                  for cs in spec.curves))
    else:
        raise ModelError(f"unknown base spec {spec!r}")
    tag = spec.lattice_tag()
    lat_id = f"{tag}/0"
    curves = {
        cs.id: Curve(cs.id, DivisorClass.dense(cs.coeffs, lat_id), cs.genus, 0, 0)
        for cs in lattice.curves
    }
    form = IntersectionForm(lat_id, lattice.gram)
    canonical = DivisorClass.dense(lattice.canonical, lat_id)
    for i, c in enumerate(curves.values()):
        try:
            _check_id(c.id, "curve id")
            _check_genus(c, canonical, form)
        except ModelError as exc:
            exc.curve = i
            raise
    for a, b in itertools.combinations(curves.values(), 2):
        num = intersect(a.cls, b.cls, form)
        if num < 0:
            raise ModelError(
                f"catalog curves {a.id!r} and {b.id!r} meet negatively: "
                f"intersection number is {num}"
            )
    return SurfaceModel(spec, tag, lattice, (), curves)


def blow_up(
    model: SurfaceModel, centers: Sequence[BlowUpCenter]
) -> SurfaceModel:
    """The tower with one more level per center, in order: level k adds
    E_k, and f*C − m·E_k for each curve C through the k-th center with
    multiplicity m; every other entry is kept, the same object.

    One pass: each curve a center touches collects its new coordinates in
    one terms dict, and its class is built once, at the end, at the level
    of its last center.  The input model is not changed.  A center that
    fails a check raises ModelError with ``center`` set to its index in
    ``centers``."""
    curves = dict(model.curves)
    placed = list(model.centers)
    labels = {c.point_label for c in placed}
    gram, base_rank = model.lattice.gram, len(model.lattice.gram)
    grown: dict[str, dict[int, int | Fraction]] = {}
    last: dict[str, int] = {}  # level of the last center on each grown curve

    def terms(cid: str) -> dict[int, int | Fraction]:
        return grown[cid] if cid in grown else curves[cid].cls.terms

    for j, center in enumerate(centers):
        k = len(placed) + 1
        e = base_rank + k - 1  # index of E_k
        try:
            incidences = center.effective_incidences()
            for cid, _ in incidences:
                if cid not in curves:
                    raise ModelError(
                        f"blow-up center references unknown curve {cid!r}")
            if center.near is not None and curves[center.near].born == 0:
                raise ModelError(
                    f"infinitely-near center must sit on an exceptional, "
                    f"not {center.near!r}"
                )
            # intersection-point budget: a center on both C and C' (mults
            # m, m') consumes m·m' of their intersection number at level k−1
            if len(incidences) > 1:
                lat_id = f"{model.tag}/{k - 1}"
                form = IntersectionForm(lat_id, gram, k - 1)
                for (c1, m1), (c2, m2) in itertools.combinations(incidences, 2):
                    num = intersect(DivisorClass(terms(c1), e, lat_id),
                                    DivisorClass(terms(c2), e, lat_id), form)
                    if num < m1 * m2:
                        raise ModelError(
                            f"intersection budget exceeded for pair "
                            f"({c1!r}, {c2!r}): center consumes {m1 * m2}, "
                            f"intersection number is {num}"
                        )
            exc_id = center.exceptional_id or f"E{k}"
            _check_id(exc_id, "exceptional id")
            if exc_id in curves:
                raise ModelError(
                    f"exceptional id {exc_id!r} already in catalog")
            if exc_id in model.lattice.basis:
                raise ModelError(
                    f"exceptional id {exc_id!r} is a base basis label")
            label = center.point_label or f"p{k}"
            if label in labels:
                raise ModelError(
                    f"point label {label!r} already names an earlier center")
        except ModelError as exc:
            exc.center = j
            raise
        labels.add(label)
        placed.append(BlowUpCenter(incidences, center.near, label, exc_id))
        for cid, m in incidences:
            if cid not in grown:
                grown[cid] = dict(curves[cid].cls.terms)
            grown[cid][e] = -m
            last[cid] = k
        curves[exc_id] = Curve(
            exc_id, basis_class(e, e + 1, f"{model.tag}/{k}"), 0, k, k)

    for cid, t in grown.items():
        c, k = curves[cid], last[cid]
        cls = DivisorClass(t, base_rank + k, f"{model.tag}/{k}")
        curves[cid] = Curve(cid, cls, c.genus, c.born, k)
    return SurfaceModel(model.base, model.tag, model.lattice, tuple(placed), curves)


# ---------------------------------------------------------------------------
# transforms


def pull_back(
    model: SurfaceModel, from_level: int, to_level: int, cls: DivisorClass
) -> DivisorClass:
    src, dst = model.level(from_level), model.level(to_level)
    if from_level > to_level:
        raise ModelError("pull_back goes up the tower")
    if cls.lattice_id != src.form.lattice_id:
        raise ModelError("class does not live at the source level")
    return DivisorClass(cls.terms, dst.form.rank, dst.form.lattice_id)


def push_forward(
    model: SurfaceModel, from_level: int, to_level: int, d: RDivisor
) -> RDivisor:
    if d.level != from_level:
        raise ModelError("divisor does not live at the source level")
    src = model.level(from_level)
    model.level(to_level)
    if from_level < to_level:
        raise ModelError("push_forward goes down the tower")
    for cid, _ in d.terms:
        if not src.has_curve(cid):
            raise ModelError(f"unknown curve {cid!r}")
    return RDivisor.make(to_level, [
        (cid, c) for cid, c in d.terms if model.curves[cid].born <= to_level])


def total_transform(
    model: SurfaceModel, d: RDivisor, to_level: int | None = None
) -> RDivisor:
    """Coefficients of the pullback f*D as an effective combination.

    Strict transforms keep their coefficient; each new exceptional picks
    up the multiplicity of the pulled-back divisor at its center.
    """
    to_level = model.top if to_level is None else to_level
    if to_level < d.level:
        raise ModelError("total_transform goes up the tower")
    model.level(to_level)
    coeffs = dict(d.terms)
    for center in model.centers[d.level:to_level]:
        coeffs[center.exceptional_id] = sum(
            m * coeffs.get(cid, 0) for cid, m in center.on_curves
        )
    return RDivisor.make(to_level, coeffs)


# ---------------------------------------------------------------------------
# validation


def validate(model: SurfaceModel, supports: Iterable[str] = ()) -> bool:
    """Whether the top level is log-resolution-ready for the pair's supports:
    every remaining intersection among them is declared transverse and
    distinct.  ``supports`` are top-level curve ids (typically Supp Δ ∪
    Supp N plus exceptionals); an id outside the catalog raises ModelError.

    The tower needs no checks here: ``blow_up`` raises on an overrun
    intersection budget and builds every level as the base form plus one
    orthogonal (−1) genus-0 exceptional per blow-up, so its signature and
    pushforward∘pullback = id hold by construction.

    No pair of supports needs an intersection check: ``make_base`` rejects
    a catalog with two distinct curves meeting negatively, an exceptional
    is born meeting every curve ≥ 0, and the budget puts a center on C and
    C' only while C·C' ≥ m·m', so distinct curves meet ≥ 0 at every level.
    """
    support_set = set(supports)
    unknown = support_set.difference(model.curves)
    if unknown:
        raise ModelError(f"support references unknown curve {min(unknown)!r}")
    # a declared multiplicity >= 2 encodes tangency; the combinatorial model
    # cannot certify that the remaining contact is simple, so be conservative
    return not any(
        m >= 2 and cid in support_set
        for center in model.centers
        for cid, m in center.on_curves
    )
