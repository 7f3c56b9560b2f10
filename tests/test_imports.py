"""Every name a package module imports is used in that module, and the
package's settable values are counted.

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
# holds it, and bench/bench_selftest.py expects mmpinhole.mask and
# mmpinhole.sync to hold it, although transmission_for and
# blade_return_profile now take their rows from footprint_rows
LOOKUP_SITES = {"mask.py": ["footprint_mask_array"],
                "sync.py": ["footprint_mask_array"]}

# Settable values of the package: see _settable_values.  A knob added or
# removed shows up as an edit of this number.
SETTABLE_VALUES = 98


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    names = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(n, ast.Name) and n.id == "dataclass" for n in names)


def _sets_init(value) -> bool:
    """Whether a field's value is ``field(..., init=...)``."""
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field" and any(k.arg == "init" for k in value.keywords))


def _settable_values(source: str) -> int:
    """Defaults of every def (positional and keyword-only), plus every annotated
    field of a ``@dataclass`` that is not declared with ``field(init=...)``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(item, ast.AnnAssign) and not _sets_init(item.value)
                         for item in node.body)
    return count


def test_counts_settable_values():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c, d=2): pass\n"
              "@dataclass(frozen=True)\n"
              "class C:\n"
              "    x: int\n"
              "    y: int = 0\n"
              "    z: int = field(init=False)\n"
              "    w = None\n"
              "class D:\n"
              "    v: int = 0\n")
    assert _settable_values(source) == 4


def test_settable_value_count():
    paths = sorted(Path(mmpinhole.__file__).parent.glob("*.py"))
    assert sum(_settable_values(p.read_text()) for p in paths) == SETTABLE_VALUES
