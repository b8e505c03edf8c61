import importlib

import pytest

# the layer modules; tracing tools wrap every callable in their __all__
LAYERS = ("weyl", "laurent", "hecke", "cups", "circles", "tangles")


@pytest.mark.parametrize("module", ["cupkl", *(f"cupkl.{layer}" for layer in LAYERS)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
