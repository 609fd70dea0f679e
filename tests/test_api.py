"""The package's public surface: __all__ names exactly what it exports, so
`from scatterchain import *` cannot fail on a name that is gone.  Its source
holds no assert statement, so `python -O` runs the same checks."""

import ast
import types
from pathlib import Path

import scatterchain as sc


def test_every_exported_name_resolves():
    assert [name for name in sc.__all__ if not hasattr(sc, name)] == []


def test_all_lists_every_public_attribute():
    public = {name for name, value in vars(sc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(sc.__all__) == public | {"__version__"}


def test_source_has_no_assert():
    package = Path(sc.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
