"""The traced benchmark wraps package functions by module and name; a
rename or deletion of one of them must fail here, not only in a traced run."""

import importlib.util
import os

from chaosid import cli, dynamics, identify, io, symmetry

LAYERS_PY = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "layers.py")


def test_traced_benchmark_installs_and_restores_its_patches():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    modules = (cli, dynamics, identify, io, symmetry)
    before = [dict(vars(module)) for module in modules]

    def replaced():
        return sum(
            vars(module)[name] is not value
            for module, names in zip(modules, before)
            for name, value in names.items()
        )

    recorder = layers.Recorder()
    try:
        layers.install(recorder)
        assert replaced() > 0
    finally:
        recorder.restore()
    assert replaced() == 0
