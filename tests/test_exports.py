"""The package's export list stays in step with what the package defines."""

from __future__ import annotations

import inspect

import domcert


def test_every_export_resolves_once():
    assert len(domcert.__all__) == len(set(domcert.__all__))
    assert [name for name in domcert.__all__ if not hasattr(domcert, name)] == []


def test_exports_are_the_sorted_public_classes_and_functions():
    assert domcert.__all__ == sorted(domcert.__all__)
    for name in domcert.__all__:
        obj = getattr(domcert, name)
        # inspect.unwrap sees through the lru_cache on the recursions.
        assert inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)), name
        assert obj.__module__.startswith("domcert."), name
    assert "eccentricity" not in domcert.__all__


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from domcert import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == domcert.__all__
