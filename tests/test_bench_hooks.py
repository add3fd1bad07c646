"""The benchmark's layer tracer must still find every function it wraps.

``bench/tracer.py`` resolves each traced target by module and attribute
name, so moving or renaming one of them breaks traced benchmark runs; this
check runs with the unit tests instead of only under ``pytest bench``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qmeasure_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_target(layer, path):
    owner = importlib.import_module(f"qmeasure.{layer}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_target_is_patched_and_restored():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        originals = {id(original) for _, _, original in tracer.patched}
        for layer, name, path in tracer_module.TARGETS:
            wrapper = bound_target(layer, path)
            assert hasattr(wrapper, "__wrapped__"), f"{name} is not wrapped"
            assert id(wrapper.__wrapped__) in originals, name
    finally:
        tracer.restore()
    assert not tracer.patched
    for layer, name, path in tracer_module.TARGETS:
        assert not hasattr(bound_target(layer, path), "__wrapped__"), f"{name} left wrapped"
