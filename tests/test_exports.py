"""Every name in a subpackage's `__all__` resolves and star-imports."""
import importlib
import pkgutil

import pytest

import calrlab

SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(calrlab.__path__) if m.ispkg)


def test_subpackages_found():
    assert SUBPACKAGES == ["carleman", "layered_maxwell", "media", "specfun", "three_sphere"]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_resolves(name):
    pkg = importlib.import_module(f"calrlab.{name}")
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    assert [n for n in pkg.__all__ if not hasattr(pkg, n)] == []
    namespace = {}
    exec(f"from calrlab.{name} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
