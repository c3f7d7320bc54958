"""Smooth projective surfaces presented as blow-up towers.

A model is a base surface (P², a ruled surface, or a user-supplied
Néron–Severi lattice) together with an ordered list of blow-ups at
combinatorial centers.  Points carry no coordinates: a center is
described by incidence (which catalog curves pass through it, with what
multiplicity) and every pair of curves has an intersection-point budget
enforced from their intersection number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .lattice import (
    DivisorClass,
    IntersectionForm,
    basis_class,
    intersect,
    rat,
    signature,
    zero_class,
)


class ModelError(ValueError):
    """Invalid model construction (unknown curves, budget overruns, ...)."""


# ---------------------------------------------------------------------------
# base specs


@dataclass(frozen=True)
class ProjectivePlane:
    """P² with basis {L}, gram [[1]], K = -3L."""

    def lattice_tag(self) -> str:
        return "P2"


@dataclass(frozen=True)
class Ruled:
    """Ruled surface over a genus-g curve with normalized section C0² = -e.

    Basis {C0, f}, gram [[-e, 1], [1, 0]], K = -2·C0 + (2g-2-e)·f.
    The catalog contains exactly C0 (genus g) and a fiber f (genus 0).
    """

    genus: int
    e: int

    def __post_init__(self):
        if self.genus < 0:
            raise ModelError("ruled surface needs genus >= 0")
        if self.e <= 0:
            raise ModelError("ruled surface needs invariant e > 0")

    def lattice_tag(self) -> str:
        return f"ruled(g={self.genus},e={self.e})"


@dataclass(frozen=True)
class CurveSpec:
    id: str
    coeffs: tuple[Fraction, ...]
    genus: int


@dataclass(frozen=True)
class AbstractLattice:
    """User-supplied ambient lattice with canonical class and curve catalog."""

    basis: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    canonical: tuple[Fraction, ...]
    curves: tuple[CurveSpec, ...]

    def lattice_tag(self) -> str:
        digest = hashlib.sha256(
            repr((self.basis, self.gram, self.canonical)).encode()
        ).hexdigest()[:8]
        return f"lattice({digest})"


BaseSpec = ProjectivePlane | Ruled | AbstractLattice


# ---------------------------------------------------------------------------
# tower data

KIND_BASE = "base-curve"
KIND_EXCEPTIONAL = "exceptional"
KIND_STRICT = "strict-transform"


@dataclass(frozen=True)
class Curve:
    id: str
    cls: DivisorClass
    genus: int
    kind: str
    origin: str | None
    born: int  # tower level at which this curve first appears

    @property
    def display(self) -> str:
        """Printable name: strict transforms carry a trailing '~'."""
        return self.id + "~" if self.kind == KIND_STRICT else self.id


@dataclass(frozen=True)
class BlowUpCenter:
    """A combinatorial point: incidences with multiplicities.

    ``near`` marks an infinitely-near point on the named exceptional; it
    is equivalent to listing that exceptional with multiplicity 1.
    """

    on_curves: tuple[tuple[str, int], ...] = ()
    near: str | None = None
    point_label: str = ""
    exceptional_id: str | None = None

    def effective_incidences(self) -> tuple[tuple[str, int], ...]:
        pairs = dict(self.on_curves)
        for cid, m in pairs.items():
            if m < 1:
                raise ModelError(f"multiplicity must be >= 1 on {cid!r}")
        if self.near is not None and self.near not in pairs:
            pairs[self.near] = 1
        return tuple(sorted(pairs.items()))


@dataclass(frozen=True)
class Level:
    form: IntersectionForm
    canonical: DivisorClass
    basis_labels: tuple[str, ...]
    curves: tuple[Curve, ...]
    center: BlowUpCenter | None  # center blown up to create this level

    def curve(self, cid: str) -> Curve:
        for c in self.curves:
            if c.id == cid:
                return c
        raise ModelError(f"unknown curve {cid!r}")

    def has_curve(self, cid: str) -> bool:
        return any(c.id == cid for c in self.curves)


@dataclass(frozen=True)
class SurfaceModel:
    base: BaseSpec
    levels: tuple[Level, ...]

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def level(self, k: int) -> Level:
        if not 0 <= k <= self.top:
            raise ModelError(f"level {k} out of range (tower has {self.top + 1})")
        return self.levels[k]

    def curve(self, k: int, cid: str) -> Curve:
        return self.level(k).curve(cid)


@dataclass(frozen=True)
class RDivisor:
    """Finitely supported rational combination of catalog curves."""

    level: int
    terms: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def make(level: int, mapping: Mapping[str, object] | Iterable = ()) -> "RDivisor":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        merged: dict[str, Fraction] = {}
        for cid, c in items:
            merged[cid] = merged.get(cid, Fraction(0)) + rat(c)
        terms = tuple(sorted((k, v) for k, v in merged.items() if v != 0))
        return RDivisor(level, terms)

    def coeff(self, cid: str) -> Fraction:
        for k, v in self.terms:
            if k == cid:
                return v
        return Fraction(0)

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
        out = zero_class(lvl.form.rank, lvl.form.lattice_id)
        for cid, c in self.terms:
            out = out + lvl.curve(cid).cls.scale(c)
        return out


# ---------------------------------------------------------------------------
# construction


def make_base(spec: BaseSpec) -> SurfaceModel:
    tag = spec.lattice_tag()
    lat_id = f"{tag}/0"
    if isinstance(spec, ProjectivePlane):
        form = IntersectionForm(lat_id, ((Fraction(1),),))
        labels = ("L",)
        canonical = DivisorClass((Fraction(-3),), lat_id)
        curves = (
            Curve("L", basis_class(0, 1, lat_id), 0, KIND_BASE, None, 0),
        )
    elif isinstance(spec, Ruled):
        g, e = spec.genus, spec.e
        form = IntersectionForm(
            lat_id,
            ((Fraction(-e), Fraction(1)), (Fraction(1), Fraction(0))),
        )
        labels = ("C0", "f")
        canonical = DivisorClass((Fraction(-2), Fraction(2 * g - 2 - e)), lat_id)
        curves = (
            Curve("C0", basis_class(0, 2, lat_id), g, KIND_BASE, None, 0),
            Curve("f", basis_class(1, 2, lat_id), 0, KIND_BASE, None, 0),
        )
    elif isinstance(spec, AbstractLattice):
        form = IntersectionForm(lat_id, spec.gram)
        try:
            sig = signature(spec.gram)
        except ValueError as exc:  # not square, or not symmetric
            raise ModelError(f"lattice gram {exc}")
        if sig != (1, form.rank - 1, 0):
            raise ModelError(
                "lattice gram matrix must have signature (1, rank-1)"
            )
        labels = spec.basis
        if len(labels) != form.rank:
            raise ModelError("basis label count must equal rank")
        canonical = DivisorClass(tuple(spec.canonical), lat_id)
        if canonical.rank != form.rank:
            raise ModelError("canonical class length must equal rank")
        seen: set[str] = set()
        curve_list = []
        for cs in spec.curves:
            if cs.id in seen:
                raise ModelError(f"duplicate curve id {cs.id!r}")
            seen.add(cs.id)
            if len(cs.coeffs) != form.rank:
                raise ModelError(f"curve {cs.id!r} class length must equal rank")
            if cs.genus < 0:
                raise ModelError(f"curve {cs.id!r} needs genus >= 0")
            curve_list.append(
                Curve(cs.id, DivisorClass(tuple(cs.coeffs), lat_id), cs.genus,
                      KIND_BASE, None, 0)
            )
        curves = tuple(curve_list)
    else:
        raise ModelError(f"unknown base spec {spec!r}")
    return SurfaceModel(spec, (Level(form, canonical, labels, curves, None),))


def _extend_class(cls: DivisorClass, lat_id: str) -> DivisorClass:
    """Pullback of a class along one blow-up: append a zero E-coordinate."""
    return DivisorClass(cls.coeffs + (Fraction(0),), lat_id)


def blow_up(model: SurfaceModel, center: BlowUpCenter) -> SurfaceModel:
    prev = model.levels[-1]
    k = model.top + 1
    incidences = center.effective_incidences()
    for cid, _ in incidences:
        if not prev.has_curve(cid):
            raise ModelError(f"blow-up center references unknown curve {cid!r}")
    if center.near is not None:
        parent = prev.curve(center.near)
        if parent.born == 0:
            raise ModelError(
                f"infinitely-near center must sit on an exceptional, "
                f"not {center.near!r}"
            )
    # intersection-point budget: a center on both C and C' (mults m, m')
    # consumes m·m' of their intersection number
    for i in range(len(incidences)):
        for j in range(i + 1, len(incidences)):
            (c1, m1), (c2, m2) = incidences[i], incidences[j]
            num = intersect(prev.curve(c1).cls, prev.curve(c2).cls, prev.form)
            if num < m1 * m2:
                raise ModelError(
                    f"intersection budget exceeded for pair ({c1!r}, {c2!r}): "
                    f"center consumes {m1 * m2}, intersection number is {num}"
                )

    exc_id = center.exceptional_id or f"E{k}"
    if prev.has_curve(exc_id):
        raise ModelError(f"exceptional id {exc_id!r} already in catalog")
    label = center.point_label or f"p{k}"
    center = BlowUpCenter(incidences, center.near, label, exc_id)

    tag = model.base.lattice_tag()
    lat_id = f"{tag}/{k}"
    form = IntersectionForm(lat_id, prev.form.gram, prev.form.exceptional + 1)
    e_cls = basis_class(form.rank - 1, form.rank, lat_id)
    canonical = _extend_class(prev.canonical, lat_id) + e_cls

    mults = dict(incidences)
    new_curves = []
    for c in prev.curves:
        m = mults.get(c.id, 0)
        cls = _extend_class(c.cls, lat_id)
        if m:
            cls = cls - e_cls.scale(m)
        new_curves.append(Curve(c.id, cls, c.genus, KIND_STRICT, c.id, c.born))
    new_curves.append(Curve(exc_id, e_cls, 0, KIND_EXCEPTIONAL, None, k))

    level = Level(form, canonical, prev.basis_labels + (exc_id,),
                  tuple(new_curves), center)
    return SurfaceModel(model.base, model.levels + (level,))


def blow_down(model: SurfaceModel) -> SurfaceModel:
    if model.top == 0:
        raise ModelError("cannot blow down a single-level model")
    return SurfaceModel(model.base, model.levels[:-1])


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
    pad = (Fraction(0),) * (dst.form.rank - src.form.rank)
    return DivisorClass(cls.coeffs + pad, dst.form.lattice_id)


def push_forward(
    model: SurfaceModel, from_level: int, to_level: int, d: RDivisor
) -> RDivisor:
    if d.level != from_level:
        raise ModelError("divisor does not live at the source level")
    src = model.level(from_level)
    model.level(to_level)
    if from_level < to_level:
        raise ModelError("push_forward goes down the tower")
    kept = [
        (cid, c) for cid, c in d.terms if src.curve(cid).born <= to_level
    ]
    return RDivisor.make(to_level, kept)


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
    coeffs = dict(d.terms)
    for k in range(d.level + 1, to_level + 1):
        center = model.level(k).center
        assert center is not None
        mult = sum(
            m * coeffs.get(cid, Fraction(0))
            for cid, m in center.effective_incidences()
        )
        coeffs[center.exceptional_id] = Fraction(mult)
    return RDivisor.make(to_level, coeffs)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    log_resolution_ready: bool

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(model: SurfaceModel, supports: Sequence[str] = ()) -> ValidationReport:
    """Checks of the pair's supports; never raises, returns the violations.

    The tower needs no checks here: ``blow_up`` raises on an overrun
    intersection budget and builds every level as the base form plus one
    orthogonal (−1) genus-0 exceptional per blow-up, so its signature and
    pushforward∘pullback = id hold by construction.

    ``supports`` are top-level curve ids (typically Supp Δ ∪ Supp N plus
    exceptionals); the log-resolution-ready flag asserts that every
    remaining intersection among them is declared transverse and distinct.
    """
    top = model.levels[-1]
    support_set = set(supports)
    ids = sorted(cid for cid in support_set if top.has_curve(cid))
    violations = [
        f"support references unknown curve {cid!r}"
        for cid in sorted(support_set.difference(ids))
    ]
    # a declared multiplicity >= 2 encodes tangency; the combinatorial model
    # cannot certify that the remaining contact is simple, so be conservative
    tangent = any(
        m >= 2 and cid in support_set
        for lvl in model.levels[1:]
        for cid, m in lvl.center.effective_incidences()
    )
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if intersect(top.curve(a).cls, top.curve(b).cls, top.form) < 0:
                violations.append(
                    f"support pair ({a!r}, {b!r}) has negative "
                    f"intersection number"
                )
    return ValidationReport(tuple(violations), not (violations or tangent))
