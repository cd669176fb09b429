"""The package's exported names and the layering of its modules."""

import ast
import sys
from pathlib import Path

import targetcodes
from targetcodes import config


def test_every_exported_name_resolves():
    missing = [name for name in targetcodes.__all__ if not hasattr(targetcodes, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from targetcodes import *", namespace)
    assert set(targetcodes.__all__) <= set(namespace)


def test_config_imports_only_the_stdlib_core_errors_and_codes():
    # so that any module, network included, can import config without a cycle
    imported = set()
    for node in ast.walk(ast.parse(Path(config.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom):  # relative: from .x import y, from . import x
            imported.update(
                [f".{node.module}"] if node.module else (f".{a.name}" for a in node.names)
            )
    local = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert local <= {".core", ".errors", ".codes"}
