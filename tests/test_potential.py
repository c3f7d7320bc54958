import collections
import gc
import random
import re
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import pklt_lab as pl
from conftest import (
    COEFF_POOL,
    KLT_COEFF_POOL,
    LATTICE_GRAM,
    LATTICE_K,
    blown_ruled,
    chain_model,
    crepant_transfer,
    cubic12_model,
    cubic_model,
    first_bad_genus,
    first_negative_pair,
    genus2_chain,
    p2,
    random_lattice_tower,
    random_pair,
    random_rational_lattice_tower,
    random_tower,
    reference_fano_type_test,
    reference_point_descriptor,
    ruled,
    top_level_decomposition,
)
from pklt_lab.modelio import load_model
from pklt_lab.potential import _points_over, anti_log_canonical
from pklt_lab.report import _display, full_report, pair_sections
from pklt_lab.surface import display_name
from pklt_lab.zariski import NOT_PSEF_MESSAGE


def half_l_pair(coeff=Fraction(3, 2), blowups=0):
    m = pl.blow_up(p2(), [pl.BlowUpCenter((("L", 1),))] * blowups)
    return pl.make_pair(m, 0, pl.RDivisor.make(0, {"L": coeff}))


def test_discrepancy_coefficient_rule():
    pair = half_l_pair()
    assert pl.potential_ledger(pair).get("L").a == Fraction(-3, 2)


def test_discrepancy_blowup_recursion():
    pair = half_l_pair(blowups=1)
    assert pl.potential_ledger(pair).get("L").a == Fraction(-3, 2)
    assert pl.potential_ledger(pair).get("E1").a == Fraction(-1, 2)  # 1 + (-3/2)


def test_discrepancy_free_exceptional():
    m = blown_ruled(2, 3)
    pair = pl.make_pair(m, 0)
    assert pl.potential_ledger(pair).get("E1").a == 1


def test_potential_ledger_ruled_blowup(ruled_blowup_pair):
    ledger = pl.potential_ledger(ruled_blowup_pair)
    c0, e1 = ledger.get("C0"), ledger.get("E1")
    assert (c0.a, c0.sigma_num, c0.pa) == (0, Fraction(5, 3), Fraction(-5, 3))
    assert (e1.a, e1.sigma_num, e1.pa) == (0, Fraction(2, 3), Fraction(-2, 3))
    top = ruled_blowup_pair.model.levels[-1]
    assert top.curve("C0").display == "C0~" and top.curve("E1").display == "E1"


def test_potential_ledger_f3():
    pair = pl.make_pair(ruled(0, 3), 0)
    ledger = pl.potential_ledger(pair)
    assert ledger.get("C0").pa == Fraction(-1, 3)
    assert ledger.get("f").pa == 0


def test_potential_ledger_p2():
    pair = pl.make_pair(p2(), 0)
    assert all(e.pa >= 0 for e in pl.potential_ledger(pair).values())


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
        prev_exc = m.centers[-1].exceptional_id
        expected.append(expected[-1] + Fraction(-5, 3) + 1)
    pair = pl.make_pair(m, 1)
    ledger = pl.potential_ledger(pair)
    assert ledger.get("C0").pa == Fraction(-5, 3)
    chain = ["E1"] + [center.exceptional_id for center in m.centers[1:]]
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
    assert pl.potential_ledger(pair).get("E1").a == -2  # 1 + 3·(-1)
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


def test_points_over_equal_the_walk_down_the_centers():
    """The one pass up the centers maps each exceptional over X, and only
    those, to the point that reference_point_descriptor finds by walking
    down them, with the same curves of X through it, at every pair level
    of the fuzz towers, chain(24) and cubic12."""
    rng = random.Random(2161)
    towers = [random_tower(rng) for _ in range(300)]
    lattices = [random_lattice_tower(rng) for _ in range(100)]
    towers += [m for m in lattices if m is not None]
    towers += [chain_model(24), cubic12_model()]
    mapped = below = through = 0
    for m in towers:
        for level in range(m.top + 1):
            points = _points_over(m, level)
            assert list(points) == [
                cid for cid, c in m.curves.items() if c.born > level]
            for cid, comp in points.items():
                label, on = reference_point_descriptor(m, level, cid)
                assert comp == pl.LocusComponent("point", label, 0, on)
                mapped += 1
                below += label != m.centers[m.curves[cid].born - 1].point_label
                through += bool(on)
    assert mapped > 1000 and below > 500 and through > 500


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


# coefficient 1 makes Nklt and pNklt non-empty often; 3/2 makes (X, Δ) not lc
RICH_IN_ONE_POOL = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1),
                    Fraction(1), Fraction(3, 2)]


def _flags(report):
    return (report.klt, report.lc, report.potentially_klt,
            report.potentially_lc)


def test_flags_follow_the_ledger_at_every_level_fuzzed():
    """classify_pair reads (potentially) klt off the emptiness of Nklt
    (pNklt); on 4500 random pairs each flag equals its threshold on the
    rational ledger, and potentially klt (lc) implies klt (lc).  Where
    the crepant transfer Δ_j to a random level j above the pair's is
    effective, (X_j, Δ_j) has the same ledger, frakA, flags and bigness:
    they are properties of the valuations, not of the level.  A draw whose
    classification raises (pnklt-connected, on a catalog missing a curve)
    is skipped."""
    flags = collections.Counter()
    transferred = raised = 0
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for pool in (COEFF_POOL, KLT_COEFF_POOL, RICH_IN_ONE_POOL):
            for _ in range(500):
                pair = random_pair(rng, pool=pool)
                try:
                    report = pl.classify_pair(pair)
                except pl.InvariantViolation:
                    raised += 1
                    continue
                ledger = pl.potential_ledger(pair)
                a = [e.a for e in ledger.values()]
                pa = [e.pa for e in ledger.values()]
                klt, lc, p_klt, p_lc = _flags(report)
                assert klt == all(v > -1 for v in a)
                assert lc == all(v >= -1 for v in a)
                assert p_klt == all(v > -1 for v in pa)
                assert p_lc == (min([0, *pa]) >= -1)
                assert (not p_klt or klt) and (not p_lc or lc)
                flags[_flags(report)] += 1
                if pair.level == pair.model.top:
                    continue
                j = rng.randrange(pair.level + 1, pair.model.top + 1)
                delta_j = crepant_transfer(pair, j)
                if delta_j is None:
                    continue
                other = pl.classify_pair(pl.make_pair(pair.model, j, delta_j))
                assert pl.potential_ledger(other.pair) == ledger
                assert other.frakA == report.frakA
                assert _flags(other) == _flags(report)
                assert other.pair.decomposition.big == pair.decomposition.big
                transferred += 1
    assert all(len({key[i] for key in flags}) == 2 for i in range(4)), flags
    assert transferred > 400 and 0 < raised < 50


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


def test_negative_part_is_the_n_of_minus_k_at_the_level_fuzzed():
    """fano_type_test's negative_part, the top-level N of (X, 0) cut to
    the curves of X, is the N of −K decomposed at the level itself, terms
    and level alike: Zariski decomposition commutes with pullback.  At
    every level of 450 random P², ruled, lattice and rational-lattice
    towers whose catalog make_base accepts, where −K is pseudoeffective
    and the pair (X, 0) is accepted.  The cut drops exceptionals above the
    level in many cases."""
    rng = random.Random(30)
    draws = (random_tower, random_lattice_tower, random_rational_lattice_tower)
    compared = cut = 0
    for t in range(450):
        model = draws[t % 3](rng)
        if model is None or (t % 3 == 2 and (first_bad_genus(model.base)
                                             or first_negative_pair(model.base))):
            continue  # a catalog make_base rejects
        for level in range(model.top + 1):
            try:
                n = pl.zariski_decompose(
                    model, level, *pl.integral_class(model, level, -1)).N
                verdict = pl.fano_type_test(model, level)
            except (pl.NotPseudoeffectiveError, pl.PairError,
                    pl.InvariantViolation):
                continue
            assert verdict.negative_part == n, (model, level)
            cut += pl.total_transform(model, n).support != n.support
            compared += 1
    assert compared > 400 and cut > 60


@pytest.mark.parametrize("build, level, delta, analyses", [
    (chain_model, 24, {}, 1),
    (chain_model, 1, {}, 1),
    (chain_model, 1, {"C0": Fraction(1, 2)}, 2),
    (genus2_chain, 24, {}, 1),
], ids=["delta-zero", "delta-zero-below-top", "delta-nonzero",
        "genus2-chain-delta-zero"])
def test_report_decomposes_once_per_pair_at_the_pair_level(
    monkeypatch, build, level, delta, analyses
):
    """make_pair then full_report with ε set, on chain(24) and the genus-2
    chain of length 24, never solves a Gram system afresh.  A Δ = 0 pair
    is built, decomposed and classified once: the Fano-type verdict is
    read off the pair's own classification.  A Δ ≠ 0 pair adds the
    Fano-type test's (X, 0), again with one decomposition at the pair
    level, so two in all.  Each make_pair maps the points over X once,
    however many loci read them, and pulls nothing back: the pair-level P
    is its own pullback."""
    model = build(24)
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "pklt_lab" or name.startswith("pklt_lab.")]
    for original in (pl.make_pair, pl.zariski_decompose, pl.classify_pair,
                     pl.solve_exact, _points_over, pl.pull_back):
        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    pair = pl.make_pair(model, level, pl.RDivisor.make(level, delta))
    full_report(pair, Fraction(1, 3))
    assert calls == {"make_pair": analyses, "zariski_decompose": analyses,
                     "classify_pair": analyses, "_points_over": analyses}


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
            curves = model.level(level).classes
            for delta in (None, pl.RDivisor.make(
                    level, {cid: rng.choice(COEFF_POOL) for cid in curves})):
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
    report._display reads it, gives Level.curve(cid).display for every
    curve and level of the fuzz towers; the ledger section of a top-level
    pair names its rows so, in catalog order."""
    rng = random.Random(6150)
    strict = rejected = ledgers = 0
    for t in range(300):
        if t % 2:
            while (model := random_lattice_tower(rng)) is None:
                rejected += 1
        else:
            model = random_tower(rng)
        for lvl in model.levels:
            for cid in lvl.classes:
                c = lvl.curve(cid)
                name = display_name(cid, model.curves[cid].born, lvl.k)
                assert name == _display(model, lvl.k, cid) == c.display
                strict += c.display.endswith("~")
        try:  # the report classifies the pair, which checks the theory
            pair = pl.make_pair(model, model.top)
            ledger = pair_sections(pair, ["ledger"])["ledger"]
        except (pl.NotPseudoeffectiveError, pl.PairError, pl.InvariantViolation):
            continue
        top = model.levels[-1]
        assert list(ledger) == [top.curve(cid).display for cid in top.classes]
        ledgers += 1
    assert strict > 1000 and rejected > 0 and ledgers > 100


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


def test_check_monotonicity_across_denominators():
    """Δ = L/2 and Δ + L/3 = 5L/6 on P² blown up at a free point: the pairs'
    ``den``s are 2 and 6, and pa(E1) = 1 in both, with numerators 2 and 6,
    so comparing raw numerators would report a violation that is not one."""
    model = pl.blow_up(p2(), [pl.BlowUpCenter(())])
    pair = pl.make_pair(model, 0, pl.RDivisor.make(0, {"L": Fraction(1, 2)}))
    extra = pl.RDivisor.make(0, {"L": Fraction(1, 3)})
    bigger = pl.make_pair(model, 0, pair.delta + extra)
    assert (pair.den, bigger.den) == (2, 6)
    assert (pair.ledger["E1"].pa, bigger.ledger["E1"].pa) == (2, 6)
    assert pl.potential_ledger(bigger)["E1"].pa == 1
    assert pl.check_monotonicity(pair, extra) == []


def _ruled_blowup_den_six():
    """models/ruled_blowup.json at level 1 with Δ = C0/2 + E1/3."""
    path = Path(__file__).resolve().parents[1] / "models" / "ruled_blowup.json"
    delta = pl.RDivisor.make(1, {"C0": Fraction(1, 2), "E1": Fraction(1, 3)})
    return pl.make_pair(load_model(str(path)).model, 1, delta)


@pytest.mark.parametrize("build, den", [
    (lambda: pl.make_pair(chain_model(24), 24), 73),
    (_ruled_blowup_den_six, 6),
    (lambda: pl.make_pair(genus2_chain(24), 24), 3),
], ids=["chain24", "ruled_blowup_den6", "genus2_chain24"])
def test_classification_compares_and_subtracts_no_fraction(build, den, monkeypatch):
    """classify_pair and the ledger, loci and flags sections work on the
    ledger's int numerators over ``den``: with Fraction's ordering and
    subtraction made to raise, they give the same sections."""
    pair = build()
    assert pair.den == den
    names, epsilons = ["ledger", "loci", "flags"], (None, Fraction(1, 3))
    expected = [pair_sections(pair, names, eps) for eps in epsilons]

    def refuse(*args):
        raise AssertionError("Fraction ordering or subtraction")

    with monkeypatch.context() as patch:
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__sub__", "__rsub__"):
            patch.setattr(Fraction, op, refuse)
        pl.classify_pair(pair)
        got = [pair_sections(pair, names, eps) for eps in epsilons]
    assert got == expected


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


@pytest.mark.parametrize("cid", ["E1", "nope"])
def test_check_witness_rejects_a_curve_not_on_the_pair_level(cid):
    """A witness names curves of the pair level, as Δ does: E1 is born
    above level 0 and 'nope' is no curve, so each raises the PairError
    that make_pair raises for the same term in Δ, not a verdict on the
    term's silent drop."""
    model = blown_ruled(2, 3)
    terms = pl.RDivisor.make(0, {"C0": 5, cid: 7})
    with pytest.raises(pl.PairError) as boundary:
        pl.make_pair(model, 0, terms)
    with pytest.raises(pl.PairError) as witness:
        pl.check_witness(pl.make_pair(model, 0), terms)
    assert str(boundary.value) == f"boundary curve {cid!r} is not on level 0"
    assert str(witness.value) == f"witness curve {cid!r} is not on level 0"


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
    assert zd.N.terms == (("C", 1),) and type(dict(zd.N.terms)["C"]) is int
    assert zd.P.terms == {} and not zd.big
    values = [v for e in pl.potential_ledger(pair).values()
              for v in (e.a, e.sigma_num, e.pa)]
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
            curves = model.level(level).classes
            for delta in ({}, {cid: rng.choice((0, 1)) for cid in curves},
                          {cid: rng.choice(pool) for cid in curves}):
                delta = pl.RDivisor.make(level, delta)
                try:
                    pair = pl.make_pair(model, level, delta)
                    pr = pl.classify_pair(pair)
                except (pl.PairError, pl.NotPseudoeffectiveError,
                        pl.InvariantViolation):
                    continue
                zd = pair.decomposition
                numbers = [v for e in pl.potential_ledger(pr.pair).values()
                           for v in (e.a, e.sigma_num, e.pa)]
                numbers += [c.genus for c in pr.nklt + pr.pnklt]
                numbers += [v for _, v in zd.N.terms + delta.terms]
                numbers += zd.P.terms.values()
                numbers += [v for v in (pr.frakA, pr.eps0,
                                        pl.eps_threshold(pair))
                            if v is not None and v is not pl.NEG_INFINITY]
                minus = [(cid, -c) for cid, c in delta.terms]
                low = pl.zariski_decompose(
                    model, level, *pl.integral_class(model, level, -1, minus))
                for witness in (pl.RDivisor.make(level, {}), low.N):
                    eps = pl.check_witness(pair, witness)["eps"]
                    if eps is not None:
                        numbers.append(eps)
                        witnessed += 1
                assert not _inexact(numbers), (model, level, delta)
                if all(type(v) is int for _, v in delta.terms):
                    assert not _uncanonical(numbers), (model, level, delta)
                    integral += 1
                if delta.is_zero():
                    assert all(type(e.a) is int
                               for e in pl.potential_ledger(pr.pair).values())
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
            pair.level, {cid: rng.choice(pool) for cid in lvl.classes}
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
        before = {cid: e.pa for cid, e in pl.potential_ledger(pair).items()}
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
    """make_pair computes P² once; reading its bigness calls no intersect,
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
    assert [pair.decomposition.big for _ in range(4)] == [True] * 4
    assert calls == []
