"""Every name a package module imports is used in that module.

``__init__.py`` re-exports by importing, and ``from __future__`` imports are
compiler directives, so both are exempt.  So are the names in ``LOOKUP_SITES``:
a module binds them for callers that look them up there.
"""

import ast
from pathlib import Path

import pytest

import mmpinhole

MODULES = sorted(p for p in Path(mmpinhole.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")

# bench/tracing.py wraps footprint_mask_array at every module attribute that
# holds it, and bench/bench_selftest.py expects mmpinhole.mask to hold it,
# although transmission_for now takes its rows from footprint_rows
LOOKUP_SITES = {"mask.py": ["footprint_mask_array"]}


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport os\nos.sep\n"
    assert _unused_imports(source) == [(2, "math")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    unused = [name for _, name in _unused_imports(path.read_text())]
    assert unused == LOOKUP_SITES.get(path.name, [])
