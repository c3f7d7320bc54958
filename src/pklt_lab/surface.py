"""Smooth projective surfaces presented as blow-up towers.

A model is a base surface (P², a ruled surface, or a user-supplied
Néron–Severi lattice) together with an ordered list of blow-ups at
combinatorial centers.  Points carry no coordinates: a center is
described by incidence (which catalog curves pass through it, with what
multiplicity) and every pair of curves has an intersection-point budget
enforced from their intersection number.
"""

from __future__ import annotations

import itertools
import zlib
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .lattice import (
    DivisorClass,
    IntersectionForm,
    basis_class,
    intersect,
    numeral,
    quotient,
    rat,
    signature,
)


class ModelError(ValueError):
    """Invalid model construction (unknown curves, budget overruns, ...).

    ``center`` is the index, in the sequence given to ``blow_up``, of the
    center that failed; ``curve`` the index, in the base catalog, of a
    curve that ``make_base`` rejects for its id, its class or its genus.
    None for an error raised anywhere else."""

    center: int | None = None
    curve: int | None = None


# ---------------------------------------------------------------------------
# base specs


class Record:
    """Base of the records that cannot be NamedTuples.  The constructor
    takes the fields that ``__slots__`` names, in order; assigning to one
    later raises AttributeError.  Records of one type compare and hash by
    their fields, unless a subclass says otherwise, and may be weakly
    referenced."""

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


class Ruled(NamedTuple("Ruled", [("genus", int), ("e", int)])):
    """Ruled surface over a genus-g curve with normalized section C0² = -e.

    Basis {C0, f}, gram [[-e, 1], [1, 0]], K = -2·C0 + (2g-2-e)·f.
    The catalog contains exactly C0 (genus g) and a fiber f (genus 0).
    """

    __slots__ = ()

    def __new__(cls, genus: int, e: int):
        if type(genus) is not int or genus < 0:
            raise ModelError("ruled surface needs an int genus >= 0")
        if type(e) is not int or e <= 0:
            raise ModelError("ruled surface needs an int invariant e > 0")
        return super().__new__(cls, genus, e)


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


BaseSpec = ProjectivePlane | Ruled | AbstractLattice


# ---------------------------------------------------------------------------
# tower data


class Curve(NamedTuple):
    """A catalog curve at tower level ``level``, with its class there: the
    curve table's entry at its last change, or a ``Level.curve`` view."""

    id: str
    cls: DivisorClass
    genus: int
    born: int  # tower level at which this curve first appears
    level: int

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
            if type(m) is not int or m < 1:
                raise ModelError(f"multiplicity must be an int >= 1 on {cid!r}")
            if cid in pairs:
                raise ModelError(f"center lists curve {cid!r} more than once")
            pairs[cid] = m
        if self.near is not None and self.near not in pairs:
            pairs[self.near] = 1
        return tuple(sorted(pairs.items()))


def _as_built(center: BlowUpCenter) -> bool:
    """Whether ``center`` is what ``blow_up`` stores for it: its incidences
    a tuple of (id, int m >= 1) tuples in strictly increasing id order,
    ``near`` absent or among them, its point label and exceptional id
    given.  Then ``effective_incidences`` would return ``on_curves``."""
    if (type(center) is not BlowUpCenter or type(center.on_curves) is not tuple
            or not center.point_label or not center.exceptional_id):
        return False
    listed, last = center.near is None, ""
    for entry in center.on_curves:
        if type(entry) is not tuple or len(entry) != 2:
            return False
        cid, m = entry
        if type(cid) is not str or cid <= last or type(m) is not int or m < 1:
            return False
        listed, last = listed or cid == center.near, cid
    return listed


class SurfaceModel(Record):
    """A base (as a lattice), its form, the centers over it, one curve table.

    Level k's basis is the base basis then E1..Ek, so a class keeps its
    coordinates up the tower.  ``curves`` maps each id, in catalog order,
    to the curve at its last change (birth, or the last center through it).
    ``blow_up`` stores each center with every incidence, ``near`` included,
    in ``on_curves``.  A blow-up adds only int coordinates, −m for a
    multiplicity m and E's 1, so Γ·δ² clears every C·C′ at every level,
    Γ and δ the lcms of the denominators of the base Gram block and of
    the catalog: the Zariski solve's one integer scale.
    A Record: a tuple cannot be weakly referenced.  Hashing one raises
    TypeError, naming SurfaceModel: the curve table is a dict.
    """

    __slots__ = ("base", "form", "lattice", "centers", "curves")
    __hash__ = None
    base: BaseSpec
    form: IntersectionForm
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
    class on the first ``rank`` coordinates of the tower's one ``form``,
    read off the tower's curve table."""

    def __init__(self, model: SurfaceModel, k: int):
        self.model = model
        self.k = k
        self.form = model.form
        self.rank = len(model.lattice.gram) + k

    @property
    def basis_labels(self) -> tuple[str, ...]:
        centers = self.model.centers[: self.k]
        return self.model.lattice.basis + tuple(c.exceptional_id for c in centers)

    def _cut(self, c: Curve) -> DivisorClass:
        """c's class at k: the stored object, cut to ``rank`` if changed above k."""
        if c.level <= self.k:
            return c.cls
        rank = self.rank
        return c.cls._replace(terms={i: v for i, v in c.cls.terms.items() if i < rank})

    @property
    def classes(self) -> dict[str, DivisorClass]:
        """Each curve born at or below k, in catalog order, to its class at k."""
        return {cid: self._cut(c)
                for cid, c in self.model.curves.items() if c.born <= self.k}

    def has_curve(self, cid: str) -> bool:
        return cid in self.model.curves and self.model.curves[cid].born <= self.k

    def has_class(self, cls: DivisorClass) -> bool:
        return (cls.lattice_id == self.form.lattice_id
                and all(i < self.rank for i in cls.terms))

    def curve(self, cid: str) -> Curve:
        if not self.has_curve(cid):
            raise ModelError(f"unknown curve {cid!r}")
        c = self.model.curves[cid]
        return Curve(cid, self._cut(c), c.genus, c.born, self.k)


class RDivisor(NamedTuple):
    """Finitely supported rational combination of catalog curves."""

    level: int
    terms: tuple[tuple[str, int | Fraction], ...]

    @staticmethod
    def make(level: int, mapping: dict[str, object] | Iterable = ()) -> "RDivisor":
        """The divisor Σ c·C at ``level``, from a dict curve id -> c or
        (id, c) pairs: coefficients made canonical, repeated ids summed,
        zero terms dropped, sorted by id."""
        items = mapping.items() if isinstance(mapping, dict) else mapping
        merged: dict[str, int | Fraction] = {}
        for cid, c in items:
            c = rat(c)
            merged[cid] = rat(merged[cid] + c) if cid in merged else c
        terms = tuple(sorted((k, v) for k, v in merged.items() if v != 0))
        return RDivisor(level, terms)

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


def integral_class(
    model: SurfaceModel, level: int, k: int,
    terms: Sequence[tuple[str, int | Fraction]] = (),
) -> tuple[DivisorClass, int]:
    """(d·(k·K + Σ c·C), d) at ``level``, with K = K₀ + E1 + ... + E_level
    (Hartshorne V.3.3), for an exact rational k and the (curve id, c)
    ``terms``, each number read by ``rat``: a class with int coefficients
    and a positive int d.  d is the lcm of the c's denominators, times
    that of the sum's where k or a rational lattice leaves a Fraction,
    which one more pass clears.  One pass over K's coefficients and the
    curves' classes, each cut to the level's rank, with no Fraction
    arithmetic on an integral lattice."""
    lvl = model.level(level)
    terms = [(cid, rat(c)) for cid, c in terms]
    d = lcm(*[c.denominator for _, c in terms])
    kd, rank, out = rat(k) * d, lvl.rank, {}
    if kd:
        base = model.lattice.canonical
        out = {i: kd * v for i, v in enumerate(base) if v}
        out.update(dict.fromkeys(range(len(base), rank), kd))  # the Eᵢ
    for cid, c in terms:
        if not lvl.has_curve(cid):
            raise ModelError(f"unknown curve {cid!r}")
        m = c.numerator * (d // c.denominator)
        for i, v in model.curves[cid].cls.terms.items():
            if i < rank:
                out[i] = out.get(i, 0) + m * v
    out = {i: v for i, v in out.items() if v}
    if any(type(v) is not int for v in out.values()):
        e = lcm(*[v.denominator for v in out.values()])
        out = {i: v.numerator * (e // v.denominator) for i, v in out.items()}
        d *= e
    return DivisorClass(out, lvl.form.lattice_id), d


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
            f"curve {c.id!r} has arithmetic genus 1 + (K.C + C.C)/2 = "
            f"{numeral(pa)}, not an integer")
    if pa < c.genus:
        raise ModelError(
            f"curve {c.id!r} has genus {c.genus} above its arithmetic genus "
            f"1 + (K.C + C.C)/2 = {numeral(pa)}")


def make_base(spec: BaseSpec) -> SurfaceModel:
    """The one-level tower over ``spec``.  Its lattice holds the forms, K
    and the catalog classes with every integral entry as an int, so that
    intersection numbers are ints; the tower's one form has the spec's tag.

    One pass checks each catalog curve in turn for a new id, a class of
    the lattice's rank, an int genus >= 0, an id that does not end in '~'
    and an integral arithmetic genus at least that genus; the first
    failing curve in catalog order sets ``ModelError.curve``.
    Distinct catalog curves must meet non-negatively, as on any surface:
    a lattice catalog with Cᵢ·Cⱼ < 0 is rejected, naming the first such
    pair.  P² (L alone) and ruled bases (C0·f = 1) always pass, and the
    budget of ``blow_up`` keeps the condition at every later level."""
    if isinstance(spec, ProjectivePlane):
        tag = "P2"
        lattice = AbstractLattice(("L",), ((1,),), (-3,),
                                  (CurveSpec("L", (1,), 0),))
    elif isinstance(spec, Ruled):
        g, e = spec.genus, spec.e
        tag = f"ruled(g={g},e={e})"
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
        crc = zlib.crc32(repr((spec.basis, spec.gram, spec.canonical)).encode())
        tag = f"lattice({crc:08x})"
        lattice = AbstractLattice(
            spec.basis, tuple(tuple(map(rat, row)) for row in spec.gram),
            tuple(map(rat, spec.canonical)),
            tuple(cs._replace(coeffs=tuple(map(rat, cs.coeffs)))
                  for cs in spec.curves))
    else:
        raise ModelError(f"unknown base spec {spec!r}")
    form = IntersectionForm(tag, lattice.gram)
    rank, lat_id = len(lattice.gram), form.lattice_id
    canonical = DivisorClass.dense(lattice.canonical, lat_id)
    curves: dict[str, Curve] = {}
    for i, cs in enumerate(lattice.curves):
        try:
            if cs.id in curves:
                raise ModelError(f"duplicate curve id {cs.id!r}")
            if len(cs.coeffs) != rank:
                raise ModelError(f"curve {cs.id!r} class length must equal rank")
            if type(cs.genus) is not int or cs.genus < 0:
                raise ModelError(f"curve {cs.id!r} needs an int genus >= 0")
            _check_id(cs.id, "curve id")
            c = Curve(cs.id, DivisorClass.dense(cs.coeffs, lat_id), cs.genus, 0, 0)
            _check_genus(c, canonical, form)
        except ModelError as exc:
            exc.curve = i
            raise
        curves[cs.id] = c
    for a, b in itertools.combinations(curves.values(), 2):
        num = intersect(a.cls, b.cls, form)
        if num < 0:
            raise ModelError(
                f"catalog curves {a.id!r} and {b.id!r} meet negatively: "
                f"intersection number is {numeral(num)}"
            )
    return SurfaceModel(spec, form, lattice, (), curves)


def blow_up(
    model: SurfaceModel, centers: Sequence[BlowUpCenter]
) -> SurfaceModel:
    """The tower with one more level per center, in order: level k adds
    E_k, and f*C − m·E_k for each curve C through the k-th center with
    multiplicity m; every other entry is kept, the same object.

    One pass: each curve a center touches grows one class of its own, and
    is rebuilt once, at the level of its last center.  A center that is
    already as stored (``_as_built``) is stored as given, the same object;
    any other is rebuilt with its incidences sorted, ``near`` among them,
    and its default label and id.  The input model is not changed.  A
    center that fails a check raises ModelError with ``center`` set to its
    index in ``centers``."""
    curves = dict(model.curves)
    placed = list(model.centers)
    labels = {c.point_label for c in placed}
    form, base_rank = model.form, len(model.lattice.gram)
    grown: dict[str, DivisorClass] = {}  # the touched curves' new classes
    last: dict[str, int] = {}  # level of the last center on each grown curve

    for j, center in enumerate(centers):
        k = len(placed) + 1
        e = base_rank + k - 1  # index of E_k
        built = _as_built(center)
        try:
            incidences = (center.on_curves if built
                          else center.effective_incidences())
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
            for (c1, m1), (c2, m2) in itertools.combinations(incidences, 2):
                num = intersect(grown.get(c1) or curves[c1].cls,
                                grown.get(c2) or curves[c2].cls, form)
                if num < m1 * m2:
                    raise ModelError(
                        f"intersection budget exceeded for pair "
                        f"({c1!r}, {c2!r}): center consumes "
                        f"{numeral(m1 * m2)}, intersection number is "
                        f"{numeral(num)}"
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
        placed.append(center if built
                      else BlowUpCenter(incidences, center.near, label, exc_id))
        for cid, m in incidences:
            if cid not in grown:  # a class of its own, grown in place
                grown[cid] = DivisorClass(dict(curves[cid].cls.terms), form.lattice_id)
            grown[cid].terms[e] = -m
            last[cid] = k
        curves[exc_id] = Curve(exc_id, basis_class(e, form.lattice_id), 0, k, k)

    for cid, cls in grown.items():
        c = curves[cid]
        curves[cid] = Curve(cid, cls, c.genus, c.born, last[cid])
    return SurfaceModel(model.base, form, model.lattice, tuple(placed), curves)


# ---------------------------------------------------------------------------
# transforms


def pull_back(
    model: SurfaceModel, from_level: int, to_level: int, cls: DivisorClass
) -> DivisorClass:
    """f*cls: the class itself, as a blow-up only appends a coordinate."""
    src = model.level(from_level)
    if from_level > model.level(to_level).k:
        raise ModelError("pull_back goes up the tower")
    if not src.has_class(cls):
        raise ModelError("class does not live at the source level")
    return cls


def total_transform(model: SurfaceModel, d: RDivisor) -> RDivisor:
    """Coefficients of the pullback f*D to the top, an effective combination.

    Strict transforms keep their coefficient; each new exceptional picks
    up the multiplicity of the pulled-back divisor at its center.  A
    divisor of the top level is its own total transform.
    """
    if model.top < d.level:
        raise ModelError("total_transform goes up the tower")
    if model.top == d.level:
        return d
    coeffs = dict(d.terms)
    for center in model.centers[d.level:]:
        coeffs[center.exceptional_id] = sum(
            m * coeffs.get(cid, 0) for cid, m in center.on_curves
        )
    return RDivisor.make(model.top, coeffs)


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
    # a declared multiplicity m >= 2 makes the center a singular point of
    # the curve (its strict transform is f*C - m*E); the combinatorial
    # model cannot certify that the strict transform is then smooth and
    # meets E transversally, so be conservative
    return not any(
        m >= 2 and cid in support_set
        for center in model.centers
        for cid, m in center.on_curves
    )
