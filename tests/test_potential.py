import collections
import gc
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest

import pklt_lab as pl
from conftest import (
    COEFF_POOL,
    LATTICE_GRAM,
    LATTICE_K,
    blown_ruled,
    chain_model,
    cubic12_model,
    cubic_model,
    p2,
    random_lattice_tower,
    random_pair,
    random_tower,
    reference_fano_type_test,
    ruled,
    top_level_decomposition,
)
from pklt_lab.potential import anti_log_canonical
from pklt_lab.report import _display, full_report
from pklt_lab.surface import display_name
from pklt_lab.zariski import NOT_PSEF_MESSAGE


def half_l_pair(coeff=Fraction(3, 2), blowups=0):
    m = pl.blow_up(p2(), [pl.BlowUpCenter((("L", 1),))] * blowups)
    return pl.make_pair(m, 0, pl.RDivisor.make(0, {"L": coeff}))


def test_discrepancy_coefficient_rule():
    pair = half_l_pair()
    assert pair.ledger.get("L").a == Fraction(-3, 2)


def test_discrepancy_blowup_recursion():
    pair = half_l_pair(blowups=1)
    assert pair.ledger.get("L").a == Fraction(-3, 2)
    assert pair.ledger.get("E1").a == Fraction(-1, 2)  # 1 + (-3/2)


def test_discrepancy_free_exceptional():
    m = blown_ruled(2, 3)
    pair = pl.make_pair(m, 0)
    assert pair.ledger.get("E1").a == 1


def test_potential_ledger_ruled_blowup(ruled_blowup_pair):
    ledger = pl.potential_ledger(ruled_blowup_pair)
    c0, e1 = ledger.get("C0"), ledger.get("E1")
    assert (c0.a, c0.sigma_num, c0.pa) == (0, Fraction(5, 3), Fraction(-5, 3))
    assert (e1.a, e1.sigma_num, e1.pa) == (0, Fraction(2, 3), Fraction(-2, 3))
    assert c0.display == "C0~" and e1.display == "E1"


def test_potential_ledger_f3():
    pair = pl.make_pair(ruled(0, 3), 0)
    ledger = pl.potential_ledger(pair)
    assert ledger.get("C0").pa == Fraction(-1, 3)
    assert ledger.get("f").pa == 0


def test_potential_ledger_p2():
    pair = pl.make_pair(p2(), 0)
    assert all(e.pa >= 0 for e in pl.potential_ledger(pair).entries)


def test_total_potential_discrepancy_values(ruled_blowup_pair):
    assert pl.total_potential_discrepancy(pl.make_pair(p2(), 0)) == 0
    assert pl.total_potential_discrepancy(
        pl.make_pair(ruled(0, 3), 0)
    ) == Fraction(-1, 3)
    assert pl.total_potential_discrepancy(ruled_blowup_pair) is pl.NEG_INFINITY


def test_total_potential_discrepancy_cubic12():
    pair = pl.make_pair(cubic12_model(), 12)
    ledger = pl.potential_ledger(pair)
    assert ledger.get("C").sigma_num == 1
    assert ledger.get("C").pa == -1
    assert pl.total_potential_discrepancy(pair) == -1


def test_divergence_oracle_ruled_blowup():
    """Chained node blow-ups on C0~ ∩ E_latest drive pa down by 2/3 per step,
    following pa_new = pa(C0~) + pa(E_prev) + 1 exactly."""
    m = blown_ruled(2, 3)
    prev_exc = "E1"
    expected = [Fraction(-2, 3)]
    for _ in range(5):
        m = pl.blow_up(m, (pl.BlowUpCenter((("C0", 1), (prev_exc, 1))),))
        prev_exc = m.levels[-1].center.exceptional_id
        expected.append(expected[-1] + Fraction(-5, 3) + 1)
    pair = pl.make_pair(m, 1)
    ledger = pl.potential_ledger(pair)
    assert ledger.get("C0").pa == Fraction(-5, 3)
    chain = ["E1"] + [lvl.center.exceptional_id for lvl in m.levels[2:]]
    assert [ledger.get(cid).pa for cid in chain] == expected
    assert expected[-1] == Fraction(-4)  # strictly unbounded below
    assert pl.total_potential_discrepancy(pair) is pl.NEG_INFINITY


def test_nklt_locus_examples(ruled_blowup_pair):
    assert [c.ref for c in pl.nklt_locus(half_l_pair())] == ["L"]
    assert pl.nklt_locus(ruled_blowup_pair) == []


def test_nklt_locus_concurrent_lines_point():
    base = pl.AbstractLattice(
        basis=("L",),
        gram=((Fraction(1),),),
        canonical=(Fraction(-3),),
        curves=tuple(
            pl.CurveSpec(f"L{i}", (Fraction(1),), 0) for i in (1, 2, 3)
        ),
    )
    m = pl.make_base(base)
    lines = (("L1", 1), ("L2", 1), ("L3", 1))
    m = pl.blow_up(m, (pl.BlowUpCenter(lines, point_label="q"),))
    delta = pl.RDivisor.make(0, {"L1": 1, "L2": 1, "L3": 1})
    pair = pl.make_pair(m, 0, delta)
    assert pair.ledger.get("E1").a == -2  # 1 + 3·(-1)
    comps = pl.nklt_locus(pair)
    point = [c for c in comps if c.kind == "point"]
    assert len(point) == 1
    assert point[0].ref == "q"
    assert point[0].on_curves == frozenset({"L1", "L2", "L3"})


def test_pnklt_locus_examples(ruled_blowup_pair):
    comps = pl.pnklt_locus(ruled_blowup_pair)
    assert [(c.kind, c.ref, c.genus) for c in comps] == [("curve", "C0", 2)]

    f3 = ruled(0, 3)
    n = pl.RDivisor.make(0, {"C0": Fraction(1, 3)})
    assert pl.pnklt_locus(pl.make_pair(f3, 0, n)) == []

    cubic = pl.make_pair(cubic12_model(), 12)
    comps = pl.pnklt_locus(cubic)
    assert [(c.kind, c.ref, c.genus) for c in comps] == [("curve", "C", 1)]


def test_eps_spnklt_ruled_blowup(ruled_blowup_pair):
    at_sixth = pl.eps_spnklt(ruled_blowup_pair, Fraction(1, 6))
    assert [c.ref for c in at_sixth] == ["C0"]
    at_half = pl.eps_spnklt(ruled_blowup_pair, Fraction(1, 2))
    assert sorted(c.ref for c in at_half) == ["C0", "E1"]
    assert pl.eps_spnklt(ruled_blowup_pair, 0) == pl.pnklt_locus(ruled_blowup_pair)
    with pytest.raises(ValueError):
        pl.eps_spnklt(ruled_blowup_pair, Fraction(-1, 2))


def test_eps_threshold(ruled_blowup_pair):
    assert pl.eps_threshold(ruled_blowup_pair) == Fraction(1, 3)
    assert pl.eps_threshold(pl.make_pair(ruled(0, 3), 0)) == Fraction(2, 3)
    # once every curve is at or below -1 there is nothing left to stabilize
    cubic = pl.make_pair(cubic12_model(), 12)
    assert pl.eps_threshold(cubic) == 1  # strict transform L has pa = 0


def test_classify_pair_flags(ruled_blowup_pair):
    f3 = pl.classify_pair(pl.make_pair(ruled(0, 3), 0))
    assert (f3.klt, f3.lc, f3.potentially_klt, f3.potentially_lc) == (
        True, True, True, True,
    )
    imp = pl.classify_pair(ruled_blowup_pair)
    assert imp.klt and imp.lc
    assert not imp.potentially_klt and not imp.potentially_lc
    assert imp.frakA is pl.NEG_INFINITY
    cubic = pl.classify_pair(pl.make_pair(cubic12_model(), 12))
    assert cubic.klt and cubic.potentially_lc and not cubic.potentially_klt
    assert cubic.frakA == -1


def test_fano_type_examples():
    f3 = pl.fano_type_test(ruled(0, 3), 0)
    assert f3.fano_type and f3.big and f3.xn_klt
    assert dict(f3.negative_part.terms) == {"C0": Fraction(1, 3)}

    genus2 = pl.fano_type_test(ruled(2, 3), 0)
    assert not genus2.fano_type
    assert "not klt" in genus2.reason

    cubic = pl.fano_type_test(cubic12_model(), 12)
    assert not cubic.fano_type

    assert pl.fano_type_test(p2(), 0).fano_type

    with pytest.raises(pl.PairError):
        pl.fano_verdict(pl.classify_pair(half_l_pair()))


def _verdict_or_error(fano_test, *args):
    try:
        return fano_test(*args)._asdict()
    except (pl.PairError, pl.NotPseudoeffectiveError,
            pl.InvariantViolation) as exc:
        return type(exc), str(exc)


FANO_OUTCOMES = {
    "-K big and (X, N) klt", "(X, N) is not klt",
    "-K is not big against the catalog", "-K is " + NOT_PSEF_MESSAGE,
    "PairError", "InvariantViolation",
}


def _fano_outcome(verdict_or_error):
    """The verdict's reason without its parenthesised detail, or the
    error's type."""
    if isinstance(verdict_or_error, tuple):
        return verdict_or_error[0].__name__
    return re.sub(r" \(.*\)$", "", verdict_or_error["reason"])


def test_fano_type_test_equals_the_classical_recipe_fuzzed():
    """fano_type_test reads the verdict off the classification of (X, 0);
    field by field, or error by error, it equals the classical recipe of
    reference_fano_type_test, which analyses (X, N) as a second pair, at
    every level of 900 random towers (every other one a lattice tower),
    cubic12, chain(24) and two disjoint lattice curves whose pNklt is
    disconnected.  A lattice catalog with two curves meeting negatively,
    which no surface has, is redrawn after make_base rejects it, so no
    divergence is allowed."""
    rng = random.Random(2841)
    cases = []
    rejected = 0
    for t in range(900):
        if t % 2:
            while (model := random_lattice_tower(rng)) is None:
                rejected += 1
        else:
            model = random_tower(rng)
        cases += [(model, level) for level in range(model.top + 1)]
    disjoint = pl.make_base(pl.AbstractLattice(
        ("H", "A", "B"), LATTICE_GRAM, LATTICE_K,
        (pl.CurveSpec("C0", (-1, -2, -2), 0),
         pl.CurveSpec("C1", (-2, -2, 1), 0))))
    for model in (cubic12_model(), chain_model(24), disjoint):
        cases += [(model, level) for level in range(model.top + 1)]
    outcomes = collections.Counter()
    diverged = 0
    for model, level in cases:
        got = _verdict_or_error(pl.fano_type_test, model, level)
        want = _verdict_or_error(reference_fano_type_test, model, level)
        diverged += got != want
        outcomes[_fano_outcome(want)] += 1
    assert len(cases) >= 3000 and rejected > 100
    assert set(outcomes) == FANO_OUTCOMES
    assert diverged == 0


@pytest.mark.parametrize("level, delta, analyses", [
    (24, {}, 1),
    (1, {"C0": Fraction(1, 2)}, 2),
], ids=["delta-zero", "delta-nonzero"])
def test_report_decomposes_once_per_pair_at_the_pair_level(
    monkeypatch, level, delta, analyses
):
    """make_pair then full_report on chain(24) never solves a Gram system
    afresh.  A Δ = 0 pair is built, decomposed and classified once: the
    Fano-type verdict is read off the pair's own classification.  A Δ ≠ 0
    pair adds the Fano-type test's (X, 0), again with one decomposition at
    the pair level, so two in all."""
    model = chain_model(24)
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "pklt_lab" or name.startswith("pklt_lab.")]
    for original in (pl.make_pair, pl.zariski_decompose, pl.classify_pair,
                     pl.solve_exact):
        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    full_report(pl.make_pair(model, level, pl.RDivisor.make(level, delta)))
    assert calls == {"make_pair": analyses, "zariski_decompose": analyses,
                     "classify_pair": analyses}


def _pair_decomposition_or_error(decompose, *args):
    try:
        zd = decompose(*args)
    except (pl.NotPseudoeffectiveError, pl.PairError) as exc:
        return type(exc)
    return zd.P, zd.N, zd.big


def test_make_pair_equals_the_top_level_decomposition_fuzzed():
    """make_pair decomposes -(K+Δ) once, at the pair level, and pulls P and
    N back to the top.  At every level of 1000 random P² and ruled towers
    and of the lattice towers that make_base accepts, with Δ = 0 and with a
    random Δ, its decomposition equals top_level_decomposition's in P, N
    and big, or both raise NotPseudoeffectiveError.  make_pair's PairError
    comes from validate, after the solve, so there the top-level solve
    succeeds."""
    rng = random.Random(1979)
    towers = [random_tower(rng) for _ in range(1000)]
    lattices = [random_lattice_tower(rng) for _ in range(300)]
    assert None in lattices
    towers += [m for m in lattices if m is not None]
    outcomes = collections.Counter()
    for model in towers:
        for level in range(model.top + 1):
            curves = model.level(level).curves
            for delta in (None, pl.RDivisor.make(
                    level, {c.id: rng.choice(COEFF_POOL) for c in curves})):
                want = _pair_decomposition_or_error(
                    top_level_decomposition, model, level, delta)
                got = _pair_decomposition_or_error(
                    lambda *args: pl.make_pair(*args).decomposition,
                    model, level, delta)
                if got is pl.PairError:
                    assert type(want) is tuple
                else:
                    assert got == want
                outcomes[type(model.base).__name__,
                         "pair" if type(got) is tuple else got.__name__] += 1
    assert {base for base, _ in outcomes} == {
        "ProjectivePlane", "Ruled", "AbstractLattice"}
    assert {outcome for _, outcome in outcomes} == {
        "pair", "PairError", "NotPseudoeffectiveError"}
    assert outcomes["AbstractLattice", "pair"] > 100, outcomes


def test_display_reads_the_curve_table():
    """The naming rule surface.display_name, read off the curve table as
    report._display reads it, gives Curve.display of the level view for
    every curve and level of the fuzz towers."""
    rng = random.Random(6150)
    strict = rejected = 0
    for t in range(300):
        if t % 2:
            while (model := random_lattice_tower(rng)) is None:
                rejected += 1
        else:
            model = random_tower(rng)
        for lvl in model.levels:
            for c in lvl.curves:
                name = display_name(c.id, model.curves[c.id].born, lvl.k)
                assert name == _display(model, lvl.k, c.id) == c.display
                strict += c.display.endswith("~")
    assert strict > 1000 and rejected > 0


def test_make_pair_rejects_bad_input():
    m = ruled(2, 3)
    with pytest.raises(pl.PairError):
        pl.make_pair(m, 0, pl.RDivisor.make(0, {"C0": Fraction(-1, 2)}))
    with pytest.raises(pl.PairError):
        pl.make_pair(blown_ruled(2, 3), 1, pl.RDivisor.make(0, {"C0": 1}))
    with pytest.raises(pl.NotPseudoeffectiveError):
        pl.make_pair(m, 0, pl.RDivisor.make(0, {"f": 10}))


def test_boundary_curve_above_the_pair_level_is_a_pair_error():
    """E1 is born at level 1, so a Δ at level 0 cannot name it: the pair
    fails its hypotheses, which is a PairError, not a ModelError."""
    with pytest.raises(pl.PairError) as exc:
        pl.make_pair(blown_ruled(2, 3), 0, pl.RDivisor.make(0, {"E1": 1}))
    assert "'E1'" in str(exc.value)


def test_dropped_pair_leaves_its_model_collectable():
    model = blown_ruled(2, 3)
    pair = pl.make_pair(model, 1)
    full_report(pair)
    ref = weakref.ref(model)
    del model, pair
    gc.collect()
    assert ref() is None


def test_make_pair_rejects_unready_resolution():
    m = pl.blow_up(ruled(2, 3), (pl.BlowUpCenter((("f", 2),)),))
    with pytest.raises(pl.PairError):
        pl.make_pair(m, 0, pl.RDivisor.make(0, {"f": Fraction(1, 2)}))


def test_check_monotonicity_examples():
    pair = pl.make_pair(ruled(2, 3), 0)
    extra = pl.RDivisor.make(0, {"f": Fraction(1, 3)})
    assert pl.check_monotonicity(pair, extra) == []
    bigger = pl.make_pair(ruled(2, 3), 0, extra)
    assert pl.potential_ledger(bigger).get("C0").pa == Fraction(-16, 9)
    assert pl.check_monotonicity(pair, pl.RDivisor.make(0, {})) == []

    p = pl.make_pair(p2(), 0)
    assert pl.check_monotonicity(p, pl.RDivisor.make(0, {"L": Fraction(1, 2)})) == []


def test_check_intersection_limit_examples(ruled_blowup_pair):
    p = pl.make_pair(p2(), 0)
    deltas = [
        pl.RDivisor.make(0, {"L": Fraction(1, i)}) for i in range(1, 9)
    ]
    rep = pl.check_intersection_limit(p, deltas)
    assert rep["decreasing"] and rep["intersection_equals_limit"]

    const = pl.check_intersection_limit(p, [pl.RDivisor.make(0, {})] * 3)
    assert const["stabilizes"] and const["intersection_equals_limit"]

    deltas = [
        pl.RDivisor.make(1, {"f": Fraction(1, i)}) for i in range(1, 9)
    ]
    rep = pl.check_intersection_limit(ruled_blowup_pair, deltas)
    assert rep["decreasing"] and rep["intersection_equals_limit"]
    assert all(("curve", "C0") in step for step in rep["chain"])


def test_check_witness_ruled_blowup(ruled_blowup_pair):
    n = pl.RDivisor.make(
        1, {"C0": Fraction(5, 3), "E1": Fraction(2, 3)}
    )
    rep = pl.check_witness(ruled_blowup_pair, n)
    assert rep["dominates"] and rep["inclusion_holds"]
    assert rep["eps"] == Fraction(1, 6)
    too_small = pl.check_witness(ruled_blowup_pair, pl.RDivisor.make(1, {}))
    assert not too_small["dominates"]


def test_check_witness_halves_an_integral_eps0_exactly():
    """On P², pa(L) = 0, so ε₀ = 1 is an int; the witness check halves it
    to the Fraction 1/2, not to the float that 1 / 2 is."""
    pair = pl.make_pair(p2(), 0)
    eps0 = pl.eps_threshold(pair)
    assert eps0 == 1 and type(eps0) is int
    rep = pl.check_witness(pair, pl.RDivisor.make(0, {}))
    assert rep["dominates"] and rep["inclusion_holds"]
    assert type(rep["eps"]) is Fraction and rep["eps"] == Fraction(1, 2)


def test_the_cubic_pair_is_solved_in_ints():
    """On 48 points of a plane cubic, C̃² = −K·C̃ = 9 − 48 = −39, so the one
    quotient of the Zariski solve is z = −39/−39 = 1: N = C̃ with the int
    coefficient 1, P = −K − C̃ = 0, and every ledger value is an int."""
    pair = pl.make_pair(cubic_model(48), 48)
    zd = pair.decomposition
    assert zd.N.terms == (("C", 1),) and type(zd.N.coeff("C")) is int
    assert zd.P.terms == {} and not zd.big
    values = [v for e in pair.ledger.entries for v in (e.a, e.sigma_num, e.pa)]
    assert len(values) == 3 * 50 and all(type(v) is int for v in values)


def _inexact(values):
    """The values that are not an int or a Fraction: a float, a bool, or
    anything else."""
    return [v for v in values if type(v) not in (int, Fraction)]


def _uncanonical(values):
    """The values that are not canonical: anything but an int or a
    Fraction, and a Fraction whose value is integral."""
    return [v for v in values
            if type(v) is not int
            and (type(v) is not Fraction or v.denominator == 1)]


def test_no_float_or_bool_among_the_numbers_fuzzed():
    """At every level of random P², ruled and lattice towers, all on an
    integral form, with Δ = 0, an integral Δ and a random Δ, every number
    in a PotentialReport, a FanoVerdict, an eps_threshold and a
    check_witness result is an int or a Fraction; with Δ = 0 every
    discrepancy a is an int.  With an integral Δ every one is canonical:
    an int when its value is integral, never a Fraction(n, 1)."""
    rng = random.Random(1968)
    pool = [0, 0, 1, Fraction(1, 2), Fraction(1, 3)]
    kinds = collections.Counter()
    reports = witnessed = integral = 0
    for t in range(150):
        if t % 3 == 2:
            while (model := random_lattice_tower(rng)) is None:
                kinds["rejected"] += 1
        else:
            model = random_tower(rng)
        kinds[type(model.base).__name__] += 1
        for level in range(model.top + 1):
            try:
                verdict = pl.fano_type_test(model, level)
            except (pl.PairError, pl.InvariantViolation):
                pass
            else:
                n = verdict.negative_part
                assert not _uncanonical(v for _, v in (n.terms if n else ()))
            curves = model.level(level).curves
            for delta in ({}, {c.id: rng.choice((0, 1)) for c in curves},
                          {c.id: rng.choice(pool) for c in curves}):
                delta = pl.RDivisor.make(level, delta)
                try:
                    pair = pl.make_pair(model, level, delta)
                    pr = pl.classify_pair(pair)
                except (pl.PairError, pl.NotPseudoeffectiveError,
                        pl.InvariantViolation):
                    continue
                zd = pair.decomposition
                numbers = [v for e in pr.pair.ledger.entries
                           for v in (e.a, e.sigma_num, e.pa)]
                numbers += [c.genus for c in pr.nklt + pr.pnklt]
                numbers += [v for _, v in zd.N.terms + delta.terms]
                numbers += zd.P.terms.values()
                numbers += [v for v in (pr.frakA, pr.eps0,
                                        pl.eps_threshold(pair))
                            if v is not None and v is not pl.NEG_INFINITY]
                for witness in (pl.RDivisor.make(level, {}),
                                pl.push_forward(model, model.top, level,
                                                zd.N)):
                    eps = pl.check_witness(pair, witness)["eps"]
                    if eps is not None:
                        numbers.append(eps)
                        witnessed += 1
                assert not _inexact(numbers), (model, level, delta)
                if all(type(v) is int for _, v in delta.terms):
                    assert not _uncanonical(numbers), (model, level, delta)
                    integral += 1
                if delta.is_zero():
                    assert all(type(e.a) is int for e in pr.pair.ledger.entries)
                reports += 1
    assert set(kinds) == {"ProjectivePlane", "Ruled", "AbstractLattice",
                          "rejected"}
    assert reports > 500 and witnessed > 500 and integral > 400


def test_monotonicity_fuzzed():
    rng = random.Random(31)
    pool = [Fraction(0), Fraction(1, 3), Fraction(1, 2)]
    checked = 0
    while checked < 30:
        pair = random_pair(rng, max_blowups=3)
        lvl = pair.model.level(pair.level)
        extra = pl.RDivisor.make(
            pair.level, {c.id: rng.choice(pool) for c in lvl.curves}
        )
        try:
            assert pl.check_monotonicity(pair, extra) == []
        except (pl.NotPseudoeffectiveError, pl.PairError):
            continue
        checked += 1


def test_birational_stability_fuzzed():
    """pa of existing curves is unchanged after one extra top blow-up."""
    rng = random.Random(47)
    from conftest import random_center

    checked = 0
    while checked < 30:
        pair = random_pair(rng, max_blowups=3)
        before = {
            e.curve_id: e.pa for e in pl.potential_ledger(pair).entries
        }
        try:
            bigger = pl.blow_up(pair.model, (random_center(rng, pair.model),))
            pair2 = pl.make_pair(bigger, pair.level, pair.delta)
        except (pl.ModelError, pl.PairError, pl.NotPseudoeffectiveError):
            continue
        after = pl.potential_ledger(pair2)
        for cid, pa in before.items():
            assert after.get(cid).pa == pa
        checked += 1


def test_reading_big_intersects_nothing(monkeypatch):
    """make_pair computes P² once; reading pair.big calls no intersect,
    through whichever module binding."""
    calls = []
    original = pl.intersect

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "pklt_lab" or name.startswith("pklt_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    pair = pl.make_pair(pl.blow_up(p2(), (pl.BlowUpCenter(()),)), 1)
    assert calls
    calls.clear()
    assert [pair.big for _ in range(4)] == [True] * 4
    assert calls == []
