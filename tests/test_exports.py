"""Every exported name resolves: a deleted function or class cannot leave a
stale entry in ``__all__`` behind."""

import importlib
import pkgutil

import pytest

import pdmradial

MODULES = ["pdmradial"] + [
    f"pdmradial.{m.name}" for m in pkgutil.iter_modules(pdmradial.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate export"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_into_a_fresh_namespace():
    namespace: dict = {}
    exec("from pdmradial import *", namespace)
    assert set(pdmradial.__all__) <= namespace.keys()
