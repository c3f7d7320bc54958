import collections
import itertools
import random
from fractions import Fraction

import pytest

import pklt_lab as pl
from conftest import (
    blown_ruled,
    chain_model,
    cubic12_model,
    p2,
    random_center,
    random_lattice_tower,
    random_tower,
    reference_tower,
    ruled,
)
from pklt_lab.lattice import basis_class, signature


def test_make_base_p2():
    m = p2()
    lvl = m.level(0)
    assert lvl.canonical.coeffs == (Fraction(-3),)
    assert lvl.curve("L").genus == 0


def test_make_base_ruled_2_3():
    m = ruled(2, 3)
    lvl = m.level(0)
    assert lvl.canonical.coeffs == (Fraction(-2), Fraction(-1))
    assert lvl.form.gram == ((Fraction(-3), Fraction(1)),
                             (Fraction(1), Fraction(0)))
    assert lvl.curve("C0").genus == 2
    assert lvl.curve("f").genus == 0


def test_make_base_ruled_0_1():
    m = ruled(0, 1)
    assert m.level(0).canonical.coeffs == (Fraction(-2), Fraction(-3))


def test_make_base_rejects_bad_ruled():
    with pytest.raises(pl.ModelError):
        pl.make_base(pl.Ruled(2, 0))


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
    antik = -lvl.canonical
    assert antik.coeffs == (Fraction(3), Fraction(-1))
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
    lvl0, lvl1 = m.level(0), m.level(1)
    pulled = pl.pull_back(m, 0, 1, lvl0.canonical)
    e = lvl1.curve("E1").cls
    assert lvl1.canonical == pulled + e
    assert pl.intersect(pulled, e, lvl1.form) == 0


def test_pull_back_preserves_intersections():
    m = blown_ruled(2, 3)
    lvl0, lvl1 = m.level(0), m.level(1)
    antik = -lvl0.canonical
    up = pl.pull_back(m, 0, 1, antik)
    assert up.coeffs == (Fraction(2), Fraction(1), Fraction(0))
    assert pl.intersect(up, up, lvl1.form) == pl.intersect(antik, antik, lvl0.form)
    assert pl.intersect(antik, antik, lvl0.form) == -8


def test_pull_back_identity_levels():
    m = ruled(2, 3)
    k = m.level(0).canonical
    assert pl.pull_back(m, 0, 0, k) == k


def test_push_forward_divisor():
    m = blown_ruled(2, 3)
    d = pl.RDivisor.make(1, {"C0": Fraction(5, 3), "E1": Fraction(2, 3)})
    down = pl.push_forward(m, 1, 0, d)
    assert down.terms == (("C0", Fraction(5, 3)),)
    only_e = pl.RDivisor.make(1, {"E1": 1})
    assert pl.push_forward(m, 1, 0, only_e).is_zero()


def test_total_transform_picks_up_center_multiplicity():
    m = blown_ruled(2, 3)
    d = pl.RDivisor.make(0, {"C0": Fraction(5, 3)})
    ft = pl.total_transform(m, d)
    assert ft.coeff("C0") == Fraction(5, 3)
    assert ft.coeff("E1") == Fraction(5, 3)


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
        for i, ai in enumerate(a.coeffs)
        for j, bj in enumerate(b.coeffs)
    )


def test_structural_invariants_fuzzed():
    rng = random.Random(11)
    towers = [random_tower(rng) for _ in range(60)] + [cubic12_model()]
    pool = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]
    for m in towers:
        base = m.level(0).form
        for k, lvl in enumerate(m.levels):
            form = lvl.form
            assert form.gram is m.lattice.gram
            basis = [
                basis_class(i, form.rank, form.lattice_id)
                for i in range(form.rank)
            ]
            assert signature(pl.gram_submatrix(basis, form)) == (
                1, form.rank - 1, 0
            )
            for _ in range(5):
                a, b = (
                    pl.DivisorClass.dense(
                        tuple(rng.choice(pool) for _ in range(form.rank)),
                        form.lattice_id,
                    )
                    for _ in range(2)
                )
                assert pl.intersect(a, b, form) == dense_intersect(
                    a, b, base.gram, k
                )
        for k in range(1, m.top + 1):
            lvl, prev = m.level(k), m.level(k - 1)
            e = lvl.curve(lvl.center.exceptional_id)
            assert e.genus == 0
            assert pl.intersect(e.cls, e.cls, lvl.form) == -1
            pulled_k = pl.pull_back(m, k - 1, k, prev.canonical)
            assert lvl.canonical == pulled_k + e.cls
            for a in prev.curves:
                for b in prev.curves:
                    assert pl.intersect(
                        pl.pull_back(m, k - 1, k, a.cls),
                        pl.pull_back(m, k - 1, k, b.cls),
                        lvl.form,
                    ) == pl.intersect(a.cls, b.cls, prev.form)
                assert pl.intersect(
                    pl.pull_back(m, k - 1, k, a.cls), e.cls, lvl.form
                ) == 0
            # genus is preserved by strict transforms
            for c in lvl.curves:
                if c.origin is not None:
                    assert c.genus == prev.curve(c.origin).genus
        if m.top > 0:
            prefix = pl.blow_up(pl.make_base(m.base), m.centers[:-1])
            assert [level_data(lvl) for lvl in prefix.levels] == [
                level_data(lvl) for lvl in m.levels[:-1]
            ]
        assert pl.validate(m)


def level_data(lvl):
    return (lvl.form, lvl.canonical, lvl.basis_labels, lvl.curves, lvl.center)


def test_every_level_matches_the_dense_reference():
    rng = random.Random(5)
    towers = [random_tower(rng) for _ in range(60)]
    for m in towers + [cubic12_model(), chain_model(24)]:
        for lvl, (labels, canonical, curves) in zip(
            m.levels, reference_tower(m), strict=True
        ):
            lat = lvl.form.lattice_id
            assert lvl.basis_labels == labels
            assert lvl.canonical == pl.DivisorClass.dense(canonical, lat)
            assert [(c.id, c.genus, c.display, c.cls) for c in lvl.curves] == [
                (cid, g, display, pl.DivisorClass.dense(cls, lat))
                for cid, g, display, cls in curves
            ]


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
    ((1, 1/2), (1/2, −1)), signature (1, 1)), blown up at random centers."""
    half = Fraction(1, 2)
    m = pl.make_base(pl.AbstractLattice(
        ("H", "A"), ((Fraction(1), half), (half, Fraction(-1))),
        (Fraction(-3), Fraction(1)),
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
            for a, ra in zip(lvl.curves, dense):
                for b, rb in zip(lvl.curves, dense):
                    got = pl.intersect(a.cls, b.cls, lvl.form)
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
    id, class terms in order, rank, lattice id, genus, born and level."""
    return m.centers, [
        (cid, c.id, list(c.cls.terms.items()), c.cls.rank, c.cls.lattice_id,
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
    assert str(exc.value) == "multiplicity must be >= 1 on 'L'"


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
        for lvl in model.levels[1:]
        for cid, m in lvl.center.effective_incidences()
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
            for a, b in itertools.combinations(lvl.curves, 2):
                num = pl.intersect(a.cls, b.cls, lvl.form)
                assert num >= 0, (m, lvl.k, a.id, b.id, num)
                pairs[num > 0] += 1
    assert pairs[True] > 1000 and pairs[False] > 1000
