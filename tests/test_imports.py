"""Every name an engine module imports is read in that module, so a fold or
a deletion cannot leave a dead import behind. Standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hskernel"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")

# Imported but not read, on purpose: bench/tracing.py patches
# reductions.apply_hs_crown, so the name must exist on that module.
UNREAD_ON_PURPOSE = {("reductions", "apply_hs_crown")}


def imported_and_read(tree):
    """The names the module binds by import (``from __future__`` imports
    are compiler directives and bind nothing that is meant to be read), and
    the names it reads."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return imported, read


def test_every_module_is_checked():
    assert {"core", "crown", "matching", "reductions"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    # Equality, not a subset test: an exemption the module no longer needs fails too.
    imported, read = imported_and_read(ast.parse((SRC / f"{module}.py").read_text()))
    assert imported - read == {name for m, name in UNREAD_ON_PURPOSE if m == module}
