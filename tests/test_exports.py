"""The package's export list names each public object once and resolves."""

import whitlocal


def test_all_names_resolve_once():
    names = whitlocal.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(whitlocal, name)]
    assert missing == []
    namespace: dict = {}
    exec("from whitlocal import *", namespace)
    assert set(names) <= set(namespace)
