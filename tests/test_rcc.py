import collections
import random
from fractions import Fraction

import pytest

import pklt_lab as pl
from conftest import (
    blown_ruled,
    cubic12_model,
    p2,
    random_klt_pair,
    random_lattice_tower,
    random_pair,
    random_tower,
    reference_class,
    reference_rcc_json,
    ruled,
)
from pklt_lab.report import rcc_json


def classify(model, level, delta=None):
    return pl.classify_pair(pl.make_pair(model, level, delta))


def test_incidence_graph_singleton(ruled_blowup_pair):
    comps = pl.pnklt_locus(ruled_blowup_pair)
    graph = pl.incidence_graph(ruled_blowup_pair, comps)
    assert len(graph.nodes) == 1
    assert graph.edges == ()


def test_incidence_graph_edge_from_intersection(ruled_blowup_pair):
    comps = pl.eps_spnklt(ruled_blowup_pair, Fraction(1, 2))  # {C0~, E1}
    graph = pl.incidence_graph(ruled_blowup_pair, comps)
    assert len(graph.nodes) == 2
    assert graph.edges == ((0, 1),)  # C0~·E1 = 1


def test_incidence_graph_empty():
    pair = pl.make_pair(p2(), 0)
    graph = pl.incidence_graph(pair, [])
    assert graph.nodes == () and graph.edges == ()
    assert pl.is_rcc_locus(graph)  # vacuously


def test_incidence_graph_point_on_curve():
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
    comps = pl.pnklt_locus(pair)
    graph = pl.incidence_graph(pair, comps)
    point = next(i for i, c in enumerate(graph.nodes) if c.kind == "point")
    curves = [i for i, c in enumerate(graph.nodes) if c.kind == "curve"]
    for i in curves:
        assert (min(i, point), max(i, point)) in graph.edges
    assert pl.is_rcc_locus(graph)  # three lines and a shared point, all rational
    # the same edges with the point listed before the curves
    last = len(comps) - 1
    flipped = pl.incidence_graph(pair, comps[::-1])
    assert sorted(flipped.edges) == sorted(
        tuple(sorted((last - i, last - j))) for i, j in graph.edges)
    assert flipped.nodes[0].kind == "point" and len(flipped.edges) == 6


def test_incidence_graph_point_meets_no_point():
    """Two points never meet, even when one point's label is the id of a
    curve that the other point lies on."""
    pair = pl.make_pair(p2(), 0)
    comps = [pl.LocusComponent("point", "L", 0),
             pl.LocusComponent("point", "q", 0, frozenset({"L"}))]
    assert pl.incidence_graph(pair, comps).edges == ()
    assert pl.incidence_graph(pair, comps[::-1]).edges == ()


def test_is_rcc_locus_genus_obstruction(ruled_blowup_pair):
    graph = pl.incidence_graph(ruled_blowup_pair, pl.pnklt_locus(ruled_blowup_pair))
    assert not pl.is_rcc_locus(graph)  # C0~ has genus 2

    cubic = pl.make_pair(cubic12_model(), 12)
    graph = pl.incidence_graph(cubic, pl.pnklt_locus(cubic))
    assert not pl.is_rcc_locus(graph)  # the cubic has genus 1


def test_is_rcc_locus_rational_singleton():
    pair = pl.make_pair(ruled(0, 5), 0)
    comps = pl.pnklt_locus(pair)  # pa(C0) = 0 - 3/5... threshold check below
    graph = pl.incidence_graph(pair, comps)
    assert pl.is_rcc_locus(graph)


def test_is_rcc_locus_disconnected_is_false():
    a = pl.LocusComponent("curve", "A", 0)
    b = pl.LocusComponent("curve", "B", 0)
    graph = pl.IncidenceGraph((a, b), ())
    assert not pl.is_rcc_locus(graph)


def test_surface_rcc_examples(ruled_blowup_pair):
    ok, reason = pl.surface_rcc_via_pnklt(classify(ruled(0, 3), 0))
    assert ok and "empty" in reason

    ok, reason = pl.surface_rcc_via_pnklt(pl.classify_pair(ruled_blowup_pair))
    assert not ok and "C0" in reason

    m = p2()
    for _ in range(3):
        m = pl.blow_up(m, (pl.BlowUpCenter(()),))
    ok, _ = pl.surface_rcc_via_pnklt(classify(m, m.top))
    assert ok


def test_surface_rcc_preconditions():
    report = classify(p2(), 0, pl.RDivisor.make(0, {"L": Fraction(1, 2)}))
    with pytest.raises(ValueError, match="requires"):
        pl.surface_rcc_via_pnklt(report)
    # -K on Ruled(2,2) is psef with N = 2C0 and P = 0, so not big
    m = ruled(2, 2)
    assert not pl.is_big(m, 0, reference_class(m, 0, -1))
    with pytest.raises(ValueError, match="big"):
        pl.surface_rcc_via_pnklt(classify(m, 0))


def test_rcc_never_true_on_known_non_rcc_towers():
    """Towers over a ruled surface with genus >= 1 base are never RCC."""
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        pair = random_pair(rng, max_blowups=3)
        base = pair.model.base
        if not isinstance(base, pl.Ruled) or base.genus == 0:
            continue
        if not pair.delta.is_zero():
            continue
        try:
            ok, _ = pl.surface_rcc_via_pnklt(pl.classify_pair(pair))
        except ValueError:
            continue
        assert not ok
        checked += 1


def test_connectedness_fuzzed_with_big_anticanonical():
    rng = random.Random(73)
    from pklt_lab.potential import anti_log_canonical

    checked = 0
    while checked < 30:
        pair = random_klt_pair(rng, max_blowups=4)
        try:
            big = pl.is_big(
                pair.model, pair.level, anti_log_canonical(pair)
            )
        except pl.NotPseudoeffectiveError:
            continue
        if not big:
            continue
        comps = pl.pnklt_locus(pair)
        graph = pl.incidence_graph(pair, comps)
        from pklt_lab.rcc import is_connected

        assert is_connected(graph)
        checked += 1


def test_rcc_of_the_classification_matches_the_bare_pair_fuzzed():
    """Every level of seeded towers with Δ = 0: wherever classify_pair
    passes, rcc_json(classify_pair(pair)) equals the verdict rebuilt from
    the bare pair.  Where it fails, the bare pair's verdict contradicts the
    connectedness theorem, and rcc gives none."""
    rng = random.Random(1)
    towers = [random_lattice_tower(rng) for _ in range(2000)]
    towers += [random_tower(rng) for _ in range(1000)]
    seen = collections.Counter()
    for m in towers:
        if m is None:
            continue
        for level in range(m.top + 1):
            try:
                pair = pl.make_pair(m, level)
            except (pl.NotPseudoeffectiveError, pl.PairError):
                seen["rejected"] += 1
                continue
            try:
                report = pl.classify_pair(pair)
            except pl.InvariantViolation as exc:
                assert exc.invariant == "pnklt-connected"
                assert reference_rcc_json(pair)["value"] is False
                seen["unclassified"] += 1
                continue
            expected = reference_rcc_json(pair)
            assert rcc_json(report) == expected
            seen[expected.get("value", "inapplicable")] += 1
    assert seen["unclassified"] >= 1
    assert all(seen[k] for k in (True, False, "inapplicable", "rejected"))


def test_rcc_gives_one_verdict_at_every_level_it_applies_fuzzed():
    """Rational connectedness is a birational invariant, and every level
    of a tower is a model of one surface: wherever rcc applies along a
    tower, it gives the same verdict.  At every level of 400 random
    towers with up to 7 blow-ups; a level whose pair (X, 0) is rejected,
    or whose pNklt is disconnected, gives no verdict."""
    rng = random.Random(19)
    seen = collections.Counter()
    for _ in range(400):
        m = random_tower(rng, 7)
        values = set()
        for level in range(m.top + 1):
            try:
                report = pl.classify_pair(pl.make_pair(m, level))
            except (pl.NotPseudoeffectiveError, pl.PairError):
                continue
            except pl.InvariantViolation as exc:
                assert exc.invariant == "pnklt-connected"
                continue
            verdict = rcc_json(report)
            if verdict["applicable"]:
                values.add(verdict["value"])
                seen["levels"] += 1
        assert len(values) <= 1, m
        seen[tuple(values)] += 1
    assert seen["levels"] > 1000 and seen[True,] > 100 and seen[False,] > 20, seen
