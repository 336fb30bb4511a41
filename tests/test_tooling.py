"""The benchmark's tracer patches torusdyn functions by name; every name must still resolve."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
