"""The benchmark's tracer patches torusdyn functions by name: every name must
still resolve, and classify must still reach the stages through those names."""

import doctest
import importlib
from collections import Counter
from pathlib import Path

from torusdyn import dynamics, kummer, oracle, polyalg
from torusdyn.cli import load_map_spec

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the stages of the dense-family pipeline, as classify reaches them
STAGES = [
    (dynamics, "invariant_family"),
    (dynamics, "sample_family_points"),
    (oracle, "hypersurface_containment"),
    (oracle, "build_embedding"),
    (oracle, "_rank_mod"),
]


def test_tracer_targets_resolve():
    # run the tracer's source without importing it, so nothing is written under perfbench/
    namespace: dict = {}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    assert namespace["TARGETS"]
    for module, attribute in namespace["TARGETS"]:
        obj = importlib.import_module(f"torusdyn.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"torusdyn.{module}.{attribute}"
            obj = getattr(obj, part)
        assert callable(obj), f"torusdyn.{module}.{attribute}"


def test_classify_reaches_the_traced_stages(monkeypatch):
    # the tracer times these stages by patching their module-level names; a
    # classify that routes around one would leave its per-layer metric at 0
    calls: Counter = Counter()
    for module, name in STAGES:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    phi = load_map_spec(str(FIXTURES / "example_dense.json")).to_map()
    report = dynamics.classify(phi)
    assert report.density is not None and report.density.not_contained
    assert all(calls[name] >= 1 for _, name in STAGES), dict(calls)


def test_docstring_examples_run():
    for module in (kummer, polyalg):
        result = doctest.testmod(module)
        assert result.failed == 0 and result.attempted > 0, (module.__name__, result)
