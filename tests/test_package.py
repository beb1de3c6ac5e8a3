"""The package's public namespace."""

import types

import affinity as af


def test_all_names_every_public_function_and_no_module():
    modules = [name for name in af.__all__
               if isinstance(getattr(af, name), types.ModuleType)]
    assert modules == []
    assert len(af.__all__) == len(set(af.__all__))
    public = {name for name, value in vars(af).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(af.__all__) == public


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from affinity import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(af.__all__)
