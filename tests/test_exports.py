"""The package's export list stays in step with what the package defines."""

from __future__ import annotations

import domcert


def test_every_export_resolves_once():
    assert len(domcert.__all__) == len(set(domcert.__all__))
    assert [name for name in domcert.__all__ if not hasattr(domcert, name)] == []
