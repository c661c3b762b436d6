"""The benchmark tracer wraps monoext functions by name; every name it
lists must still resolve, or traced benchmark runs stop at start-up."""

import importlib.util
import sys
from pathlib import Path

import monoext
import monoext.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_name_exported_functions():
    tracer = _load_tracer()
    for layer, names in tracer.LAYERS.items():
        for name in names:
            if name.startswith("cli."):
                assert callable(getattr(monoext.cli, name[4:], None)), (layer, name)
            else:
                assert name in monoext.__all__, (layer, name)
                assert callable(getattr(monoext, name)), (layer, name)


def _monoext_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "monoext" or name.startswith("monoext."))}


def test_tracer_start_and_stop_restore_every_attribute():
    # start() also builds the counting hooks, which read monoext attributes
    # such as StepFunction1D.
    before = _monoext_namespaces()
    tracer = _load_tracer().Tracer(monoext)
    tracer.start()
    try:
        patched = list(tracer._patched)
        assert patched
        for mod, attr, orig in patched:
            assert getattr(mod, attr) is not orig, (mod.__name__, attr)
        assert monoext.integrate(lambda s: s, 0.0, 1.0) == 0.5
        assert tracer.counts["func1d.quad_evals"] > 0
    finally:
        tracer.stop()
    for mod, attr, orig in patched:
        assert getattr(mod, attr) is orig, (mod.__name__, attr)
    after = _monoext_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        for attr, value in namespace.items():
            assert after[name][attr] is value, (name, attr)
