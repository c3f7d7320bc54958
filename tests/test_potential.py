import collections
import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

import pklt_lab as pl
from conftest import (
    blown_ruled,
    chain_model,
    cubic12_model,
    p2,
    random_pair,
    random_tower,
    ruled,
)
from pklt_lab.potential import anti_log_canonical
from pklt_lab.report import full_report


def half_l_pair(coeff=Fraction(3, 2), blowups=0):
    m = p2()
    for _ in range(blowups):
        m = pl.blow_up(m, pl.BlowUpCenter((("L", 1),)))
    return pl.make_pair(m, 0, pl.RDivisor.make(0, {"L": coeff}))


def test_discrepancy_coefficient_rule():
    pair = half_l_pair()
    assert pl.discrepancies(pair)["L"] == Fraction(-3, 2)


def test_discrepancy_blowup_recursion():
    pair = half_l_pair(blowups=1)
    a = pl.discrepancies(pair)
    assert a["L"] == Fraction(-3, 2)
    assert a["E1"] == Fraction(-1, 2)  # 1 + (-3/2)


def test_discrepancy_free_exceptional():
    m = blown_ruled(2, 3)
    pair = pl.make_pair(m, 0)
    assert pl.discrepancies(pair)["E1"] == 1


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
        m = pl.blow_up(m, pl.BlowUpCenter((("C0", 1), (prev_exc, 1))))
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
    m = pl.blow_up(
        m, pl.BlowUpCenter((("L1", 1), ("L2", 1), ("L3", 1)), point_label="q")
    )
    delta = pl.RDivisor.make(0, {"L1": 1, "L2": 1, "L3": 1})
    pair = pl.make_pair(m, 0, delta)
    assert pl.discrepancies(pair)["E1"] == -2  # 1 + 3·(-1)
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


def _verdict_or_error(fano_test, *args):
    try:
        return vars(fano_test(*args))
    except (pl.PairError, pl.NotPseudoeffectiveError,
            pl.InvariantViolation) as exc:
        return type(exc), str(exc)


def test_fano_verdict_of_a_pair_equals_fano_type_test_fuzzed():
    """A Δ = 0 pair's own decomposition of f*(-K) gives, field by field,
    the verdict fano_type_test computes afresh at the pair's level."""
    rng = random.Random(2841)
    compared = below_top = 0
    while compared < 1000:
        model = random_tower(rng)
        level = rng.randrange(0, model.top + 1)
        try:
            pair = pl.make_pair(model, level)
        except (pl.NotPseudoeffectiveError, pl.PairError):
            continue
        assert _verdict_or_error(pl.fano_type_of_pair, pair) == (
            _verdict_or_error(pl.fano_type_test, model, level)
        )
        compared += 1
        below_top += level < model.top
    assert below_top >= compared // 2


def test_delta_zero_report_reuses_the_pair_decomposition(monkeypatch):
    """make_pair then full_report on a Δ = 0 pair decomposes twice, for the
    pair and for (X, N), and never solves a Gram system afresh."""
    model = chain_model(24)
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "pklt_lab" or name.startswith("pklt_lab.")]
    for original in (pl.zariski_decompose, pl.solve_exact):
        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    full_report(pl.make_pair(model, model.top))
    assert calls["zariski_decompose"] == 2
    assert calls["solve_exact"] == 0


def test_make_pair_rejects_bad_input():
    m = ruled(2, 3)
    with pytest.raises(pl.PairError):
        pl.make_pair(m, 0, pl.RDivisor.make(0, {"C0": Fraction(-1, 2)}))
    with pytest.raises(pl.PairError):
        pl.make_pair(blown_ruled(2, 3), 1, pl.RDivisor.make(0, {"C0": 1}))
    with pytest.raises(pl.NotPseudoeffectiveError):
        pl.make_pair(m, 0, pl.RDivisor.make(0, {"f": 10}))


def test_dropped_pair_leaves_its_model_collectable():
    model = blown_ruled(2, 3)
    pair = pl.make_pair(model, 1)
    full_report(pair)
    ref = weakref.ref(model)
    del model, pair
    gc.collect()
    assert ref() is None


def test_make_pair_rejects_unready_resolution():
    m = pl.blow_up(ruled(2, 3), pl.BlowUpCenter((("f", 2),)))
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
            bigger = pl.blow_up(pair.model, random_center(rng, pair.model))
            pair2 = pl.make_pair(bigger, pair.level, pair.delta)
        except (pl.ModelError, pl.PairError, pl.NotPseudoeffectiveError):
            continue
        after = pl.potential_ledger(pair2)
        for cid, pa in before.items():
            assert after.get(cid).pa == pa
        checked += 1
