"""The package's public surface: __all__ names exactly what it exports, so
`from scatterchain import *` cannot fail on a name that is gone."""

import types

import scatterchain as sc


def test_every_exported_name_resolves():
    assert [name for name in sc.__all__ if not hasattr(sc, name)] == []


def test_all_lists_every_public_attribute():
    public = {name for name, value in vars(sc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(sc.__all__) == public | {"__version__"}
