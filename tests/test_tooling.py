"""The benchmark's tracer patches torusdyn functions by name: every name must
still resolve, and classify must still reach the stages through those names.
The benchmark's corpora also pin classify's reports."""

import doctest
import hashlib
import importlib
import sys
import types
from collections import Counter
from pathlib import Path

from torusdyn import dynamics, intlinalg, kummer, oracle, polyalg
from torusdyn.cli import load_map_spec
from torusdyn.torus import AffineMonomialMap

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
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
        *owners, name = attribute.split(".")
        for part in owners:
            obj = getattr(obj, part)
        # Tracer.install patches a method on its own class (cls.__dict__), so
        # one inherited from a base class would not resolve there
        assert name in (vars(obj) if owners else dir(obj)), f"torusdyn.{module}.{attribute}"
        assert callable(getattr(obj, name)), f"torusdyn.{module}.{attribute}"


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


# the degree-one stages, and the fixtures whose classification reaches each one
DEGREE_ONE_STAGES = {
    "dynamical_degree": {"example_wild.json", "example_fibration.json"},
    "find_invariant_fibration": {"example_wild.json", "example_fibration.json"},
    "_fixed_character_lattice": {"example_wild.json", "example_fibration.json"},
    "wildness_certificate": {"example_wild.json"},
}


def test_classify_reaches_the_degree_one_stages(monkeypatch):
    # classify hands its spectral data to these stages; it must still call them
    # through their module-level names, where the tracer patches them
    calls: Counter = Counter()
    for name in DEGREE_ONE_STAGES:
        original = getattr(dynamics, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)
    for fixture in ("example_wild.json", "example_fibration.json"):
        calls.clear()
        dynamics.classify(load_map_spec(str(FIXTURES / fixture)).to_map())
        reached = {name for name in DEGREE_ONE_STAGES if calls[name]}
        assert reached == {name for name, where in DEGREE_ONE_STAGES.items() if fixture in where}, fixture


def test_docstring_examples_run():
    for module in (kummer, polyalg, intlinalg):
        result = doctest.testmod(module)
        assert result.failed == 0 and result.attempted > 0, (module.__name__, result)


def _perfbench_module(name, monkeypatch):
    """Run perfbench/<name>.py as module ``name`` without importing it, so
    nothing is written under perfbench/."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)  # its dataclasses and imports look it up there
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


# sha256 over repr(classify(phi)) of every map of these corpora, in order, as
# computed before the density test read its sample's orders in one gcd pass
_CORPUS_REPORTS = "b79c62d6d3cb8595ee3942496a22debd6f112200c0dc47d84b6d0cd4c550c05c"


def test_corpus_reports_pinned(monkeypatch):
    _perfbench_module("exact", monkeypatch)
    corpus = _perfbench_module("corpus", monkeypatch)
    digest = hashlib.sha256()
    count = 0
    for workload in ("dense_families", "highdim", "degree_one"):
        for seed in (7, 11):
            for case in getattr(corpus, workload)(seed):
                phi = AffineMonomialMap.build(case.rows, kummer.parse_point(case.gamma))
                digest.update(repr(dynamics.classify(phi)).encode())
                count += 1
    assert (count, digest.hexdigest()) == (588, _CORPUS_REPORTS)
