"""The engine's records: NamedTuples, and Records where a tuple would not do."""

import gc
import weakref

import pytest

import pklt_lab as pl
from conftest import blown_ruled, p2
from pklt_lab import lattice, modelio, potential, surface, zariski
from pklt_lab.surface import Record


def one_of_each_record():
    """An instance of every record type of the engine, taken from real
    computations where there is one."""
    model = blown_ruled(2, 3)
    level = model.level(1)
    pair = pl.make_pair(p2(), 0, pl.RDivisor.make(0, {"L": 1}))
    report = pl.classify_pair(pair)
    return [
        pl.integral_class(model, 1, 1)[0],
        level.form,
        pl.ProjectivePlane(),
        model.base,
        pl.CurveSpec("C", (1,), 0),
        model.lattice,
        model.curves["C0"],
        model.centers[0],
        model,
        pl.RDivisor.make(1, {"C0": 1}),
        pair.decomposition,
        pair,
        pair.ledger["L"],
        report.nklt[0],
        pl.incidence_graph(pair, report.pnklt),
        report,
        pl.fano_type_test(p2(), 0),
        modelio.parse_model({"version": modelio.SCHEMA_VERSION,
                             "base": {"kind": "P2"}}),
    ]


def record_types():
    return {
        value
        for module in (lattice, surface, zariski, potential, modelio)
        for value in vars(module).values()
        if isinstance(value, type) and value is not Record
        and value.__module__ == module.__name__
        and (issubclass(value, Record) or hasattr(value, "_fields"))
    }


def test_the_samples_cover_every_record_type():
    assert {type(r) for r in one_of_each_record()} == record_types()


@pytest.mark.parametrize("record", one_of_each_record(),
                         ids=lambda r: type(r).__name__)
def test_assigning_to_a_field_of_a_record_raises(record):
    fields = getattr(record, "_fields", None) or record.__slots__
    for name in fields or ("new_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_pair_spec_compares_and_hashes_by_identity():
    model = blown_ruled(2, 3)
    pair, twin = pl.make_pair(model, 1), pl.make_pair(model, 1)
    assert pair.ledger == twin.ledger
    assert pair == pair and pair != twin
    assert len({pair, twin, pair}) == 2
    assert hash(pair) == object.__hash__(pair)


@pytest.mark.parametrize("genus, e", [(-1, 3), (0, 0)])
def test_ruled_rejects_bad_invariants_when_built(genus, e):
    with pytest.raises(pl.ModelError):
        pl.Ruled(genus, e)


def test_projective_plane_is_true_and_not_the_empty_tuple():
    plane = pl.ProjectivePlane()
    assert plane and plane != () and plane == pl.ProjectivePlane()
    assert hash(plane) == hash(pl.ProjectivePlane())
    assert repr(plane) == "ProjectivePlane()"


def test_surface_model_is_weakly_referenced_and_compares_by_value():
    model, twin = blown_ruled(2, 3), blown_ruled(2, 3)
    assert model is not twin and model == twin
    assert model != blown_ruled(2, 4) and model != p2()
    with pytest.raises(TypeError, match="unhashable type: 'SurfaceModel'"):
        hash(model)
    ref = weakref.ref(twin)
    del twin
    gc.collect()
    assert ref() is None
