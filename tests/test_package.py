"""The package's exported names."""

import targetcodes


def test_every_exported_name_resolves():
    missing = [name for name in targetcodes.__all__ if not hasattr(targetcodes, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from targetcodes import *", namespace)
    assert set(targetcodes.__all__) <= set(namespace)
