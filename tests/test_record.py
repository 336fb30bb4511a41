import random
from fractions import Fraction
from pathlib import Path

import pytest

from torusdyn import dynamics, oracle, reference
from torusdyn.cli import load_map_spec
from torusdyn.intlinalg import IntMatrix, Lattice
from torusdyn.kummer import layer_orders, layers_of, one_point
from torusdyn.polyalg import IntPoly
from torusdyn.record import Record
from torusdyn.torus import AffineMonomialMap

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def _collect(obj, found: dict) -> None:
    """Record in found the first instance of each record type reachable from obj."""
    if isinstance(obj, Record):
        found.setdefault(type(obj), obj)
        for name in obj._fields:
            _collect(getattr(obj, name), found)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _collect(x, found)
    elif isinstance(obj, dict):
        for x in obj.values():
            _collect(x, found)


@pytest.fixture(scope="module")
def instances() -> dict:
    """One instance of every record type, taken from real pipeline output."""
    found: dict = {}
    config = dynamics.ClassifyConfig(family_budget=4)
    for name in ("example_dense.json", "example_fibration.json", "example_wild.json"):
        spec = load_map_spec(str(FIXDIR / name))
        report = dynamics.classify(spec.to_map(), config)
        _collect([spec, config, report, *(f.cycle for f in report.family)], found)
    _collect(dynamics.decompose(load_map_spec(str(FIXDIR / "example_dense.json")).to_map()), found)
    _collect(oracle.build_embedding(*layer_orders(*layers_of([one_point(2)])), random.Random(0)), found)
    _collect(reference.finite_model_run(AffineMonomialMap.build([[2]], one_point(1)), 7), found)
    return found


def test_every_record_type_has_an_instance(instances):
    assert set(instances) == set(Record.__subclasses__())


def test_records_are_frozen_values(instances):
    for cls, x in instances.items():
        values = tuple(getattr(x, name) for name in cls._fields)
        for name in cls._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(x, name, getattr(x, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(x, name)
        twin = cls(*values)
        assert twin == x and twin is not x, cls
        try:
            want = hash(values)
        except TypeError:  # a field holds a list or a dict, as on a frozen dataclass
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == want == hash(twin), cls


def test_record_construction_and_repr():
    config = dynamics.ClassifyConfig(seed=3, force_family=True)
    assert config == dynamics.ClassifyConfig(360, 3, 50, 3, 32, Fraction(1, 1000), 40, 200, True)
    assert config != dynamics.ClassifyConfig() and vars(config)["seed"] == 3
    assert repr(IntMatrix.identity(1)) == "IntMatrix(rows=1, cols=1, entries=(1,))"
    assert repr(Lattice.zero(2)) == "Lattice(ambient_dim=2, basis=())"
    assert IntMatrix(1, 1, (1,)) != IntPoly.one() and IntPoly.one() != (1,)
    bad_calls = [((1, 1), {}), ((1, 1, (1,), 0), {}), ((1, 1), {"entries": (1,), "rows": 1}), ((1, 1, (1,)), {"size": 2})]
    for args, kwargs in bad_calls:  # missing, extra, repeated and unknown arguments
        with pytest.raises(TypeError, match=r"IntMatrix\(\) takes each of \('rows', 'cols', 'entries'\) once"):
            IntMatrix(*args, **kwargs)
