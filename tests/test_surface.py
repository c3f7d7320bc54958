import collections
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import pklt_lab as pl
from conftest import (
    COEFF_POOL,
    blown_ruled,
    class_sum,
    chain_model,
    coords,
    cubic12_model,
    p2,
    random_center,
    random_lattice_tower,
    random_rational_lattice_tower,
    random_tower,
    reference_class,
    reference_tower,
    ruled,
)
from pklt_lab import surface
from pklt_lab.lattice import basis_class, signature
from pklt_lab.modelio import ValidationError, parse_model


def canonical(m, k):
    """K at level k of a tower whose base K is integral, as
    integral_class sums it."""
    K, d = pl.integral_class(m, k, 1)
    assert d == 1
    return K


def test_make_base_p2():
    m = p2()
    lvl = m.level(0)
    assert coords(canonical(m, 0), lvl.rank) == (-3,)
    assert lvl.curve("L").genus == 0


def test_make_base_ruled_2_3():
    m = ruled(2, 3)
    lvl = m.level(0)
    assert coords(canonical(m, 0), lvl.rank) == (-2, -1)
    assert lvl.form.gram == ((Fraction(-3), Fraction(1)),
                             (Fraction(1), Fraction(0)))
    assert lvl.curve("C0").genus == 2
    assert lvl.curve("f").genus == 0


def test_make_base_ruled_0_1():
    m = ruled(0, 1)
    assert coords(canonical(m, 0), 2) == (-2, -3)


def test_make_base_rejects_bad_ruled():
    with pytest.raises(pl.ModelError):
        pl.make_base(pl.Ruled(2, 0))


def test_make_base_intersects_each_pair_of_distinct_curves_once(monkeypatch):
    """The genus check intersects each of the m catalog curves twice (K·C
    and C²) and the sign check each pair of distinct curves once: 2m +
    m(m−1)/2 calls.  No product of a curve with itself is taken twice."""
    calls = []

    def counting(a, b, form):
        calls.append((a, b))
        return pl.intersect(a, b, form)

    monkeypatch.setattr(surface, "intersect", counting)
    blown = pl.AbstractLattice(  # P² at two points: H, A, B, H − A, H − B
        ("H", "A", "B"), ((1, 0, 0), (0, -1, 0), (0, 0, -1)), (-3, 1, 1),
        tuple(pl.CurveSpec(cid, coeffs, 0) for cid, coeffs in (
            ("H", (1, 0, 0)), ("A", (0, 1, 0)), ("B", (0, 0, 1)),
            ("HA", (1, -1, 0)), ("HB", (1, 0, -1)))))
    for spec, m in ((pl.ProjectivePlane(), 1), (pl.Ruled(2, 3), 2),
                    (cubic_lattice(), 1), (blown, 5)):
        calls.clear()
        pl.make_base(spec)
        assert len(calls) == 2 * m + m * (m - 1) // 2, spec


def test_blow_up_section_point():
    m = blown_ruled(2, 3)
    lvl = m.level(1)
    c0t, e = lvl.curve("C0"), lvl.curve("E1")
    assert pl.intersect(c0t.cls, c0t.cls, lvl.form) == -4
    assert pl.intersect(e.cls, e.cls, lvl.form) == -1
    assert pl.intersect(c0t.cls, e.cls, lvl.form) == 1
    assert c0t.display == "C0~"
    assert e.display == "E1"


def test_blow_up_free_point_on_p2_degree_8():
    m = pl.blow_up(p2(), (pl.BlowUpCenter(()),))
    lvl = m.level(1)
    antik, _ = pl.integral_class(m, 1, -1)
    assert coords(antik, lvl.rank) == (3, -1)
    assert pl.intersect(antik, antik, lvl.form) == 8


def test_infinitely_near_chain():
    m = pl.blow_up(p2(), (pl.BlowUpCenter(()),))
    m = pl.blow_up(m, (pl.BlowUpCenter(near="E1"),))
    lvl = m.level(2)
    e1 = lvl.curve("E1")
    assert pl.intersect(e1.cls, e1.cls, lvl.form) == -2
    assert e1.display == "E1~"


def test_infinitely_near_rejects_base_curve():
    with pytest.raises(pl.ModelError):
        pl.blow_up(p2(), (pl.BlowUpCenter(near="L"),))


def test_canonical_update_rule():
    m = blown_ruled(2, 3)
    lvl1 = m.level(1)
    pulled = pl.pull_back(m, 0, 1, canonical(m, 0))
    e = lvl1.curve("E1").cls
    assert canonical(m, 1) == class_sum(pulled, [(1, e)])
    assert pl.intersect(pulled, e, lvl1.form) == 0


def test_pull_back_preserves_intersections():
    m = blown_ruled(2, 3)
    lvl0, lvl1 = m.level(0), m.level(1)
    antik, _ = pl.integral_class(m, 0, -1)
    up = pl.pull_back(m, 0, 1, antik)
    assert coords(up, lvl1.rank) == (Fraction(2), Fraction(1), Fraction(0))
    assert pl.intersect(up, up, lvl1.form) == pl.intersect(antik, antik, lvl0.form)
    assert pl.intersect(antik, antik, lvl0.form) == -8


def test_pull_back_rejects_a_class_from_above_its_source():
    """-K₁ has a term at E1, the coordinate past level 0's rank."""
    m = blown_ruled(2, 3)
    with pytest.raises(pl.ModelError, match="does not live at the source level"):
        pl.pull_back(m, 0, 1, pl.integral_class(m, 1, -1)[0])


def test_pull_back_identity_levels():
    m = ruled(2, 3)
    k = canonical(m, 0)
    assert pl.pull_back(m, 0, 0, k) == k


def test_total_transform_picks_up_center_multiplicity():
    m = blown_ruled(2, 3)
    d = pl.RDivisor.make(0, {"C0": Fraction(5, 3)})
    terms = dict(pl.total_transform(m, d).terms)
    assert terms["C0"] == Fraction(5, 3)
    assert terms["E1"] == Fraction(5, 3)


def test_blow_up_unknown_curve_errors():
    with pytest.raises(pl.ModelError):
        pl.blow_up(p2(), (pl.BlowUpCenter((("nope", 1),)),))


def test_intersection_budget_enforced():
    m = ruled(2, 3)
    # C0·f = 1: one shared transverse point is fine, a second is not
    m = pl.blow_up(m, (pl.BlowUpCenter((("C0", 1), ("f", 1))),))
    with pytest.raises(pl.ModelError) as exc:
        pl.blow_up(m, (pl.BlowUpCenter((("C0", 1), ("f", 1))),))
    assert "C0" in str(exc.value) and "f" in str(exc.value)


def test_tangency_budget_enforced():
    with pytest.raises(pl.ModelError):
        pl.blow_up(ruled(2, 3), (pl.BlowUpCenter((("C0", 2), ("f", 1))),))


def test_validate_fresh_model_ready():
    assert pl.validate(ruled(2, 3), ["C0", "f"]) is True


def test_validate_ruled_blowup_tower():
    m = blown_ruled(2, 3)
    assert pl.validate(m, ["C0", "E1"]) is True


def test_validate_flags_tangency_as_not_ready():
    m = pl.blow_up(ruled(2, 3), (pl.BlowUpCenter((("f", 2),)),))
    assert pl.validate(m, ["f", "E1"]) is False


def test_blow_up_rejects_a_point_label_already_in_use():
    """Loci name a point by its label, so two centers may not share one,
    whether it was given or is the default p{k}."""
    on_l = (("L", 1),)
    m = pl.blow_up(p2(), (pl.BlowUpCenter(on_l, point_label="p2"),))
    for center in (pl.BlowUpCenter(on_l), pl.BlowUpCenter(point_label="p2")):
        with pytest.raises(pl.ModelError) as exc:
            pl.blow_up(m, (center,))
        assert str(exc.value) == "point label 'p2' already names an earlier center"
    m = pl.blow_up(p2(), (pl.BlowUpCenter(on_l, point_label="p1"),
                          pl.BlowUpCenter(on_l)))
    pair = pl.make_pair(m, 0, pl.RDivisor.make(0, {"L": 2}))
    assert [c.ref for c in pl.pnklt_locus(pair)] == ["L", "p1", "p2"]


def test_make_base_rejects_curves_meeting_negatively():
    base = pl.AbstractLattice(
        basis=("L",),
        gram=((Fraction(1),),),
        canonical=(Fraction(-3),),
        curves=(
            pl.CurveSpec("A", (Fraction(1),), 0),
            pl.CurveSpec("M", (Fraction(2),), 0),
            pl.CurveSpec("B", (Fraction(-1),), 0),
            pl.CurveSpec("C", (Fraction(-2),), 0),
        ),
    )
    with pytest.raises(pl.ModelError) as exc:
        pl.make_base(base)
    assert str(exc.value) == (
        "catalog curves 'A' and 'B' meet negatively: intersection number is -1"
    )


def test_validate_reports_unknown_supports():
    with pytest.raises(pl.ModelError) as exc:
        pl.validate(blown_ruled(2, 3), ["E1", "Z", "C0", "Y"])
    assert str(exc.value) == "support references unknown curve 'Y'"


def dense_intersect(a, b, base_gram, blowups):
    """aᵀGb with G the dense block matrix diag(base_gram, -1, ..., -1)."""
    n = len(base_gram)
    gram = [list(row) + [Fraction(0)] * blowups for row in base_gram]
    for i in range(blowups):
        gram.append([Fraction(0)] * (n + blowups))
        gram[-1][n + i] = Fraction(-1)
    return sum(
        ai * gram[i][j] * bj
        for i, ai in enumerate(coords(a, n + blowups))
        for j, bj in enumerate(coords(b, n + blowups))
    )


def test_structural_invariants_fuzzed():
    rng = random.Random(11)
    towers = [random_tower(rng) for _ in range(60)] + [cubic12_model()]
    pool = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]
    for m in towers:
        base = m.level(0).form
        for k, lvl in enumerate(m.levels):
            form, rank = lvl.form, lvl.rank
            assert form is m.form and form.gram is m.lattice.gram
            assert rank == len(form.gram) + k
            basis = [basis_class(i, form.lattice_id) for i in range(rank)]
            assert signature(pl.gram_submatrix(basis, form)) == (
                1, rank - 1, 0
            )
            for _ in range(5):
                a, b = (
                    pl.DivisorClass.dense(
                        tuple(rng.choice(pool) for _ in range(rank)),
                        form.lattice_id,
                    )
                    for _ in range(2)
                )
                assert pl.intersect(a, b, form) == dense_intersect(
                    a, b, base.gram, k
                )
        for k in range(1, m.top + 1):
            lvl, prev = m.level(k), m.level(k - 1)
            e = lvl.curve(m.centers[k - 1].exceptional_id)
            assert e.genus == 0
            assert pl.intersect(e.cls, e.cls, lvl.form) == -1
            pulled_k = pl.pull_back(m, k - 1, k, canonical(m, k - 1))
            assert canonical(m, k) == class_sum(pulled_k, [(1, e.cls)])
            for a in prev.classes.values():
                for b in prev.classes.values():
                    assert pl.intersect(
                        pl.pull_back(m, k - 1, k, a),
                        pl.pull_back(m, k - 1, k, b),
                        lvl.form,
                    ) == pl.intersect(a, b, prev.form)
                assert pl.intersect(
                    pl.pull_back(m, k - 1, k, a), e.cls, lvl.form
                ) == 0
            # genus is preserved by strict transforms
            for cid in lvl.classes:
                c = lvl.curve(cid)
                if c.born < c.level:
                    assert c.genus == prev.curve(cid).genus
        if m.top > 0:
            prefix = pl.blow_up(pl.make_base(m.base), m.centers[:-1])
            assert [level_data(lvl) for lvl in prefix.levels] == [
                level_data(lvl) for lvl in m.levels[:-1]
            ]
        assert pl.validate(m)


def level_data(lvl):
    curves = [lvl.curve(cid) for cid in lvl.classes]
    center = lvl.model.centers[lvl.k - 1] if lvl.k else None
    return (lvl.form, canonical(lvl.model, lvl.k), lvl.basis_labels, curves,
            center)


def test_every_level_matches_the_dense_reference():
    rng = random.Random(5)
    towers = [random_tower(rng) for _ in range(60)]
    for m in towers + [cubic12_model(), chain_model(24)]:
        for lvl, (labels, K, curves) in zip(
            m.levels, reference_tower(m), strict=True
        ):
            lat = lvl.form.lattice_id
            assert lvl.basis_labels == labels
            assert canonical(m, lvl.k) == pl.DivisorClass.dense(K, lat)
            assert [(c.id, c.genus, c.display, c.cls)
                    for c in map(lvl.curve, lvl.classes)] == [
                (cid, g, display, pl.DivisorClass.dense(cls, lat))
                for cid, g, display, cls in curves
            ]


def test_level_classes_are_the_reference_classes():
    """Level.classes maps each curve born at or below k, in catalog order,
    to reference_tower's class at k.  It hands out the curve table's class
    object exactly when the curve's last change is at or below k; a curve
    changed above k gets a class of its own, cut to rank(k)."""
    rng = random.Random(21)
    towers = [random_tower(rng) for _ in range(60)]
    lattices = [random_lattice_tower(rng) for _ in range(60)]
    towers += [m for m in lattices if m is not None]
    towers += [cubic12_model(), chain_model(24)]
    shared = cut = 0
    for m in towers:
        for lvl, (_, _, curves) in zip(m.levels, reference_tower(m), strict=True):
            lat = lvl.form.lattice_id
            classes = lvl.classes
            assert list(classes.items()) == [
                (cid, pl.DivisorClass.dense(cls, lat)) for cid, _, _, cls in curves]
            for cid, cls in classes.items():
                stored = m.curves[cid]
                assert (cls is stored.cls) == (stored.level <= lvl.k)
                assert all(i < lvl.rank for i in cls.terms)
                shared += stored.level <= lvl.k
                cut += stored.level > lvl.k
    assert shared > 500 and cut > 200


def reference_gram(base):
    """The base Gram block of ``base`` as Fractions, read off its spec."""
    if isinstance(base, pl.ProjectivePlane):
        rows = ((1,),)
    elif isinstance(base, pl.Ruled):
        rows = ((-base.e, 1), (1, 0))
    else:
        rows = base.gram
    return tuple(tuple(Fraction(g) for g in row) for row in rows)


def half_gram_tower(rng):
    """A lattice base whose form has the entry H·A = 1/2 (gram
    ((1, 1/2), (1/2, −1)), signature (1, 1)), blown up at random centers.
    K = −2H − 2A gives H, A and C = 2H + A the integral arithmetic genera
    0, 1 and 1 that make_base requires."""
    half = Fraction(1, 2)
    m = pl.make_base(pl.AbstractLattice(
        ("H", "A"), ((Fraction(1), half), (half, Fraction(-1))),
        (Fraction(-2), Fraction(-2)),
        (pl.CurveSpec("H", (Fraction(1), Fraction(0)), 0),
         pl.CurveSpec("A", (Fraction(0), Fraction(1)), 0),
         pl.CurveSpec("C", (Fraction(2), Fraction(1)), 0)),
    ))
    for _ in range(rng.randrange(0, 5)):
        m = pl.blow_up(m, (random_center(rng, m),))
    return m


def test_catalog_products_are_ints_on_an_integral_form():
    """At every level of random P², ruled and integral-lattice towers, the
    product of any two catalog classes is an int, equal to the Fraction
    product of reference_tower's classes under the Fraction base form.  On
    a form with the entry 1/2 the products are ints and exact Fractions,
    never floats, equal to the same reference."""
    rng = random.Random(368)
    towers = [random_tower(rng) for _ in range(30)]
    lattices = [random_lattice_tower(rng) for _ in range(30)]
    assert None in lattices and lattices.count(None) < len(lattices)
    towers += [m for m in lattices if m is not None]
    towers += [half_gram_tower(rng) for _ in range(15)]
    kinds = collections.Counter()
    for m in towers:
        gram = reference_gram(m.base)
        integral = all(g.denominator == 1 for row in gram for g in row)
        for k, (lvl, (_, _, curves)) in enumerate(
            zip(m.levels, reference_tower(m), strict=True)
        ):
            lat = lvl.form.lattice_id
            dense = [pl.DivisorClass.dense(cls, lat) for _, _, _, cls in curves]
            for a, ra in zip(lvl.classes.values(), dense):
                for b, rb in zip(lvl.classes.values(), dense):
                    got = pl.intersect(a, b, lvl.form)
                    want = dense_intersect(ra, rb, gram, k)
                    assert type(want) is Fraction and got == want
                    assert type(got) in ((int,) if integral else (int, Fraction))
                    kinds[type(m.base).__name__, type(got).__name__] += 1
    assert {base for base, _ in kinds} == {
        "ProjectivePlane", "Ruled", "AbstractLattice"}
    assert kinds["AbstractLattice", "Fraction"] > 100


def test_blow_up_keeps_the_curves_off_the_center():
    rng = random.Random(8)
    for _ in range(60):
        m = random_tower(rng)
        center = random_center(rng, m)
        up = pl.blow_up(m, (center,))
        on = dict(center.on_curves)
        assert len(up.curves) == len(m.curves) + 1
        for old, new in zip(m.curves.values(), up.curves.values()):
            assert (new is old) == (old.id not in on)


def tower_table(m):
    """What blow_up builds: the centers, and per curve in dict order its
    id, class terms in order, lattice id, genus, born and level."""
    return m.centers, [
        (cid, c.id, list(c.cls.terms.items()), c.cls.lattice_id,
         c.genus, c.born, c.level)
        for cid, c in m.curves.items()
    ]


def test_one_call_equals_a_fold_of_one_center_calls():
    """blow_up(m, centers) builds the same tower as one call per center,
    from the base or from any prefix of the tower, and changes neither
    the model it is given nor any class in it."""
    rng = random.Random(13)
    towers = [random_tower(rng, 8) for _ in range(150)]
    lattices = [random_lattice_tower(rng) for _ in range(150)]
    towers += [m for m in lattices if m is not None]
    towers += [cubic12_model(), chain_model(24)]
    for m in towers:
        # the centers as given, with the default id and label of each level
        centers = [
            pl.BlowUpCenter(tuple(i for i in c.on_curves if i[0] != c.near),
                            c.near)
            for c in m.centers
        ]
        base = pl.make_base(m.base)
        folded = base
        for center in centers:
            folded = pl.blow_up(folded, (center,))
        expected = tower_table(folded)
        assert tower_table(m) == expected
        split = rng.randint(0, m.top)
        prefix = pl.blow_up(base, centers[:split])
        base_table, prefix_table = tower_table(base), tower_table(prefix)
        assert tower_table(pl.blow_up(base, centers)) == expected
        assert tower_table(pl.blow_up(prefix, centers[split:])) == expected
        assert tower_table(base) == base_table
        assert tower_table(prefix) == prefix_table


def test_each_center_check_names_the_failing_center():
    """A multiplicity below 1 is a schema error in a model file, so only a
    library caller reaches blow_up's own check: ``center`` is the index of
    the failing center in the sequence given, here the third."""
    centers = [pl.BlowUpCenter((("L", 1),)), pl.BlowUpCenter(),
               pl.BlowUpCenter((("E1", 1), ("L", 0)))]
    with pytest.raises(pl.ModelError) as exc:
        pl.blow_up(p2(), centers)
    assert exc.value.center == 2
    assert str(exc.value) == "multiplicity must be an int >= 1 on 'L'"


def respellings(center, k):
    """Spellings of the k-th center of a tower, as stored, that blow_up
    stores as it at level k: incidences reversed, as a list, ``near`` left
    out of them, the default label and id left out."""
    on = center.on_curves
    near_out = tuple(i for i in on if i[0] != center.near)
    yield center._replace(on_curves=on[::-1])
    yield center._replace(on_curves=list(on))
    yield center._replace(on_curves=near_out)
    if (center.point_label, center.exceptional_id) == (f"p{k}", f"E{k}"):
        yield pl.BlowUpCenter(near_out, center.near)


def test_a_center_as_stored_is_kept_and_respellings_build_the_same_tower():
    """blow_up stores a center that is already as stored as the same
    object; every respelling of it builds the same tower.  Half the
    random_tower centers on an exceptional with multiplicity 1 also name
    it as ``near``, and a chain adds centers given by ``near`` alone."""
    rng = random.Random(41)
    towers = [random_tower(rng, 6) for _ in range(150)] + [chain_model(5)]
    seen = collections.Counter()
    for m in towers:
        centers = []
        for c in m.centers:
            near = [cid for cid, mult in c.on_curves
                    if mult == 1 and m.curves[cid].born > 0]
            centers.append(c._replace(near=near[0]) if near and rng.random() < 0.5
                           else c)
        base = pl.make_base(m.base)
        kept = pl.blow_up(base, centers)
        assert all(a is b for a, b in zip(kept.centers, centers, strict=True))
        expected = tower_table(kept)
        assert tower_table(pl.blow_up(base, m.centers)) == tower_table(m)
        for i in range(len(centers)):
            for respelled in respellings(centers[i], i + 1):
                again = [*centers[:i], respelled, *centers[i + 1:]]
                assert tower_table(pl.blow_up(base, again)) == expected
        seen["near"] += sum(c.near is not None for c in centers)
        seen["two incidences"] += sum(len(c.on_curves) == 2 for c in centers)
    assert seen["near"] > 50 and seen["two incidences"] > 50, seen


def test_each_center_check_raises_the_same_error_for_every_spelling():
    """Over P² blown up at a point of L, each faulty second center raises
    the same ModelError text, with ``center`` 1, whether it is spelled as
    blow_up stores a center or not."""
    first = pl.BlowUpCenter((("L", 1),), None, "p1", "E1")
    faults = {
        (("E1", 1), ("E1", 1)): "center lists curve 'E1' more than once",
        (("L", 0),): "multiplicity must be an int >= 1 on 'L'",
        (("L", True),): "multiplicity must be an int >= 1 on 'L'",
        (("Z", 1),): "blow-up center references unknown curve 'Z'",
        (("E1", 1), ("L", 2)): "intersection budget exceeded for pair "
                               "('E1', 'L'): center consumes 2, intersection "
                               "number is 1",
    }
    spellings = []
    for on, text in faults.items():
        spellings += [(pl.BlowUpCenter(on, None, "p2", "E2"), text),
                      (pl.BlowUpCenter(list(on), None, "p2", "E2"), text),
                      (pl.BlowUpCenter(on), text)]
    near_l = "infinitely-near center must sit on an exceptional, not 'L'"
    spellings += [(pl.BlowUpCenter((("L", 1),), "L", "p2", "E2"), near_l),
                  (pl.BlowUpCenter((), "L", "p2", "E2"), near_l),
                  (pl.BlowUpCenter((), "L"), near_l)]
    for label, exc_id, text in (
            ("p1", "E2", "point label 'p1' already names an earlier center"),
            ("p2", "E1", "exceptional id 'E1' already in catalog"),
            ("p2", "L", "exceptional id 'L' already in catalog")):
        spellings += [(pl.BlowUpCenter((("E1", 1),), None, label, exc_id), text),
                      (pl.BlowUpCenter([("E1", 1)], None, label, exc_id), text)]
    for center, text in spellings:
        with pytest.raises(pl.ModelError) as exc:
            pl.blow_up(p2(), [first, center])
        assert (exc.value.center, str(exc.value)) == (1, text), center


def all_pairs_validate(model, supports=()):
    """validate as it was first written: every pair of support curves is
    intersected at the top level.  Returns the log-resolution-ready bool,
    or raises ModelError naming the least unknown support or the first
    pair of supports that meet negatively."""
    top = model.level(model.top)
    support_set = set(supports)
    ids = sorted(cid for cid in support_set if top.has_curve(cid))
    unknown = sorted(support_set.difference(ids))
    if unknown:
        raise pl.ModelError(f"support references unknown curve {unknown[0]!r}")
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if pl.intersect(top.curve(a).cls, top.curve(b).cls, top.form) < 0:
                raise pl.ModelError(f"support pair ({a!r}, {b!r}) has "
                                    f"negative intersection number")
    return not any(
        m >= 2 and cid in support_set
        for center in model.centers
        for cid, m in center.effective_incidences()
    )


def validate_outcome(check, model, supports):
    """check(model, supports), or the text of the ModelError it raises."""
    try:
        return check(model, supports)
    except pl.ModelError as exc:
        return str(exc)


def test_validate_matches_the_all_pairs_check():
    """validate scans no pair of supports, yet equals the all-pairs check:
    on every tower that make_base accepts, no two supports meet negatively
    (make_base rejects the lattice catalogs that have such a pair)."""
    rng = random.Random(1412)
    kinds = collections.Counter()
    for t in range(800):
        m = random_lattice_tower(rng) if t % 2 else random_tower(rng)
        if m is None:
            kinds["rejected"] += 1
            continue
        kinds[type(m.base).__name__] += 1
        ids = list(m.curves)
        supports = rng.sample(ids, rng.randint(0, len(ids)))
        if rng.random() < 0.1:
            supports.append("Z")
        expected = validate_outcome(all_pairs_validate, m, supports)
        assert validate_outcome(pl.validate, m, supports) == expected
        kinds["unknown"] += isinstance(expected, str) and "unknown" in expected
    assert set(kinds) == {"ProjectivePlane", "Ruled", "AbstractLattice",
                          "rejected", "unknown"}


def test_distinct_curves_meet_non_negatively_at_every_level():
    """Distinct catalog curves meet ≥ 0 at every level of every tower that
    make_base accepts: the fact that make_pair's pullback of the pair-level
    decomposition rests on, and why validate needs no pair scan."""
    rng = random.Random(1979)
    towers = [random_tower(rng) for _ in range(300)]
    towers += [cubic12_model(), chain_model(24)]
    lattices = [random_lattice_tower(rng) for _ in range(600)]
    assert None in lattices and lattices.count(None) < len(lattices)
    towers += [m for m in lattices if m is not None]
    pairs = collections.Counter()
    for m in towers:
        for lvl in m.levels:
            classes = lvl.classes
            for a, b in itertools.combinations(classes, 2):
                num = pl.intersect(classes[a], classes[b], lvl.form)
                assert num >= 0, (m, lvl.k, a, b, num)
                pairs[num > 0] += 1
    assert pairs[True] > 1000 and pairs[False] > 1000


def cubic_lattice(basis=("H",), canonical=(-3,), curves=(("C", (3,), 1),)):
    """P² as a rank-1 lattice with the cubic C = 3H, or a variant of it."""
    return pl.AbstractLattice(basis, ((1,),), canonical,
                              tuple(pl.CurveSpec(*c) for c in curves))


@pytest.mark.parametrize("curves, text", [
    ((("L", (1,), 0), ("L", (3,), 1)), "duplicate curve id 'L'"),
    ((("L", (1,), 0), ("C", (3, 0), 1)),
     "curve 'C' class length must equal rank"),
    ((("L", (1,), 0), ("C", (3,), -1)), "curve 'C' needs an int genus >= 0"),
], ids=["duplicate-id", "class-length", "genus-below-0"])
def test_make_base_names_the_curve_each_catalog_check_rejects(curves, text):
    """The checks of a lattice catalog's ids, class lengths and genera set
    ``ModelError.curve`` to the rejected curve's index, as the id-suffix
    and arithmetic-genus checks do."""
    with pytest.raises(pl.ModelError) as info:
        pl.make_base(cubic_lattice(curves=curves))
    assert (str(info.value), info.value.curve) == (text, 1)


def test_integral_class_of_a_fraction_k():
    """An exact rational k: K/2 = −3L/2 on P² is (−3L, 2)."""
    cls, d = pl.integral_class(p2(), 0, Fraction(1, 2))
    assert (cls.terms, d) == ({0: -3}, 2)


def typed_rejections():
    """Each check of the library that a caller, not the CLI, meets, as a
    call, the error it raises and the start of its text."""
    m = blown_ruled(2, 3)  # top 1
    pair, pair0 = pl.make_pair(m, 1), pl.make_pair(m, 0)
    d0, d1 = pl.RDivisor.make(0, {"C0": 1}), pl.RDivisor.make(1, {"C0": 1})
    negative = pl.RDivisor.make(1, {"C0": -1})
    loaded = parse_model({"version": "pklt-lab/1", "base": {"kind": "P2"}})

    def on_l(mult):
        return pl.blow_up(p2(), [pl.BlowUpCenter((("L", mult),))])

    return {
        "basis-label-count": (
            lambda: pl.make_base(cubic_lattice(basis=("H", "A"))),
            pl.ModelError, "basis label count must equal rank"),
        "canonical-length": (
            lambda: pl.make_base(cubic_lattice(canonical=(-3, 0))),
            pl.ModelError, "canonical class length must equal rank"),
        "class-length": (
            lambda: pl.make_base(cubic_lattice(curves=(("C", (3, 0), 1),))),
            pl.ModelError, "curve 'C' class length must equal rank"),
        "duplicate-curve-id": (
            lambda: pl.make_base(cubic_lattice(
                curves=(("C", (3,), 1), ("C", (1,), 0)))),
            pl.ModelError, "duplicate curve id 'C'"),
        "genus-below-0": (
            lambda: pl.make_base(cubic_lattice(curves=(("C", (3,), -1),))),
            pl.ModelError, "curve 'C' needs an int genus >= 0"),
        "genus-a-half": (
            lambda: pl.make_base(cubic_lattice(curves=(("C", (3,), 0.5),))),
            pl.ModelError, "curve 'C' needs an int genus >= 0"),
        "genus-a-bool": (
            lambda: pl.make_base(cubic_lattice(curves=(("C", (3,), True),))),
            pl.ModelError, "curve 'C' needs an int genus >= 0"),
        "ruled-e-a-float": (
            lambda: pl.Ruled(2, 3.0),
            pl.ModelError, "ruled surface needs an int invariant e > 0"),
        "ruled-genus-a-bool": (
            lambda: pl.Ruled(True, 3),
            pl.ModelError, "ruled surface needs an int genus >= 0"),
        "ruled-genus-an-integral-fraction": (
            lambda: pl.Ruled(Fraction(3), 3),
            pl.ModelError, "ruled surface needs an int genus >= 0"),
        "multiplicity-a-fraction": (
            lambda: on_l(Fraction(3, 2)),
            pl.ModelError, "multiplicity must be an int >= 1 on 'L'"),
        "multiplicity-a-float": (
            lambda: on_l(1.5),
            pl.ModelError, "multiplicity must be an int >= 1 on 'L'"),
        "multiplicity-an-integral-float": (
            lambda: on_l(2.0),
            pl.ModelError, "multiplicity must be an int >= 1 on 'L'"),
        "multiplicity-a-bool": (
            lambda: on_l(True),
            pl.ModelError, "multiplicity must be an int >= 1 on 'L'"),
        "unknown-base-spec": (
            lambda: pl.make_base("P3"),
            pl.ModelError, "unknown base spec 'P3'"),
        "level-out-of-range": (
            lambda: m.level(2),
            pl.ModelError, "level 2 out of range (tower has 2)"),
        "curve-above-the-level": (
            lambda: m.level(0).curve("E1"), pl.ModelError, "unknown curve 'E1'"),
        "pull-back-from-above": (
            lambda: pl.pull_back(m, 1, 0, canonical(m, 0)),
            pl.ModelError, "pull_back goes up the tower"),
        "total-transform-from-above-the-top": (
            lambda: pl.total_transform(m, pl.RDivisor.make(2, {})),
            pl.ModelError, "total_transform goes up the tower"),
        "sum-across-levels": (
            lambda: d0 + d1,
            pl.ModelError, "cannot add divisors at different levels"),
        "rat-of-a-bool": (
            lambda: pl.rat(True), TypeError, "bool is not a rational coefficient"),
        "rat-of-a-float": (
            lambda: pl.rat(0.5), TypeError, "not an exact rational: 0.5"),
        "solve-of-a-non-square-system": (
            lambda: pl.solve_exact([[1, 0]], [1]),
            ValueError, "dimension mismatch"),
        "monotonicity-of-a-negative-extra": (
            lambda: pl.check_monotonicity(pair, negative),
            pl.PairError, "extra boundary must be effective"),
        "monotonicity-of-an-extra-above-the-pair-level": (
            lambda: pl.check_monotonicity(pair0, d1),
            pl.PairError, "extra divisor must live at the pair level"),
        "monotonicity-of-an-extra-on-an-unknown-curve": (
            lambda: pl.check_monotonicity(
                pair0, pl.RDivisor.make(0, {"nope": 1})),
            pl.PairError, "extra curve 'nope' is not on level 0"),
        "witness-at-another-level": (
            lambda: pl.check_witness(pair, d0),
            pl.PairError, "witness divisor must live at the pair level"),
        "negative-witness": (
            lambda: pl.check_witness(pair, negative),
            pl.PairError, "witness divisor must be effective"),
        "unknown-named-divisor": (
            lambda: loaded.divisor_at("X", 0),
            ValidationError, "/divisors: unknown divisor 'X'"),
        "integral-class-of-a-curve-above-the-level": (
            lambda: surface.integral_class(m, 0, 0, (("E1", 1),)),
            pl.ModelError, "unknown curve 'E1'"),
        "integral-class-of-a-float-k": (
            lambda: pl.integral_class(p2(), 0, 2.0),
            TypeError, "not an exact rational: 2.0"),
        "integral-class-of-a-bool-k": (
            lambda: pl.integral_class(p2(), 0, True),
            TypeError, "bool is not a rational coefficient"),
        "integral-class-of-a-float-coefficient": (
            lambda: pl.integral_class(p2(), 0, 0, (("L", 0.5),)),
            TypeError, "not an exact rational: 0.5"),
        "decomposition-over-a-zero-scale": (
            lambda: pl.zariski_decompose(m, 0, canonical(m, 0), 0),
            ValueError, "the scale d of D/d must be an int >= 1, not 0"),
        "decomposition-over-a-fraction-scale": (
            lambda: pl.zariski_decompose(
                m, 0, canonical(m, 0), Fraction(1, 2)),
            ValueError, "the scale d of D/d must be an int >= 1"),
    }


@pytest.mark.parametrize("case", sorted(typed_rejections()))
def test_each_typed_rejection_raises_its_error(case):
    call, error, text = typed_rejections()[case]
    with pytest.raises(error, match="^" + re.escape(text)) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("draw", [
    random_tower, random_lattice_tower, random_rational_lattice_tower,
], ids=["p2-ruled", "lattice", "rational-lattice"])
def test_integral_class_is_d_times_the_reference_class_fuzzed(draw):
    """integral_class(model, level, k, terms) is (d·(k·K + Σ c·C), d): int
    coefficients, an int d >= 1, and the class over d equal to
    reference_class's dense Fraction sum.  At every level of the towers
    among 150 draws that make_base accepts, for k in −1, 0 and 1, with no
    terms, with a Δ drawn from COEFF_POOL and with −Δ.  Only on the
    rational lattices does the sum keep a Fraction, often enough that the
    extra pass runs."""
    rng = random.Random(29)
    cases = collections.Counter()
    for _ in range(150):
        m = draw(rng)
        if m is None:  # a lattice catalog that make_base rejects
            continue
        for lvl in m.levels:
            delta = [(cid, rng.choice(COEFF_POOL)) for cid in lvl.classes]
            minus = [(cid, -c) for cid, c in delta]
            for k, terms in itertools.product((-1, 0, 1), ((), delta, minus)):
                D, d = pl.integral_class(m, lvl.k, k, terms)
                want = reference_class(m, lvl.k, k, terms)
                assert type(d) is int and d >= 1
                assert all(type(v) is int for v in D.terms.values())
                assert D.lattice_id == want.lattice_id
                assert {i: Fraction(v, d) for i, v in D.terms.items()} == want.terms
                cases[d > math.lcm(*[c.denominator for _, c in terms])] += 1
    rational = draw is random_rational_lattice_tower
    assert cases[False] > 500 and (cases[True] > 100) == rational, cases
