import importlib
import importlib.util
import pathlib

import pytest

# the layer modules; tracing tools wrap every callable in their __all__
LAYERS = ("weyl", "laurent", "hecke", "cups", "circles", "tangles")


@pytest.mark.parametrize("module", ["cupkl", *(f"cupkl.{layer}" for layer in LAYERS)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_traced_names_resolve():
    # the benchmark's tracer wraps these by name and fails on a missing one
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    for (layer, cls_name), methods in worker.METHODS.items():
        cls = getattr(importlib.import_module(f"cupkl.{layer}"), cls_name)
        assert [m for m in methods if m not in vars(cls)] == [], (layer, cls_name)
    for layer, names in worker.PRIVATE.items():
        mod = importlib.import_module(f"cupkl.{layer}")
        assert [name for name in names if not callable(getattr(mod, name, None))] == [], layer
