"""The package's export list names each public object once and resolves."""

import pytest

import whitlocal
from whitlocal import exactalg, symfunc


def test_all_names_resolve_once():
    names = whitlocal.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(whitlocal, name)]
    assert missing == []
    namespace: dict = {}
    exec("from whitlocal import *", namespace)
    assert set(names) <= set(namespace)


def test_exports_are_the_module_objects():
    assert whitlocal.LaurentPoly is exactalg.LaurentPoly
    assert whitlocal.schur is symfunc.schur
    assert set(whitlocal.__all__) <= set(dir(whitlocal))
    with pytest.raises(AttributeError, match="no_such_name"):
        whitlocal.no_such_name
