"""The benchmark tracer wraps monoext functions by name; every name it
lists must still resolve, or traced benchmark runs stop at start-up."""

import importlib.util
from pathlib import Path

import monoext
import monoext.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_layers_name_exported_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYERS.items():
        for name in names:
            if name.startswith("cli."):
                assert callable(getattr(monoext.cli, name[4:], None)), (layer, name)
            else:
                assert name in monoext.__all__, (layer, name)
                assert callable(getattr(monoext, name)), (layer, name)
