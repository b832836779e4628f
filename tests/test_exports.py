"""The public names: each library module's ``__all__`` is the one list of its
exports, and the package re-exports their union."""

import importlib
import pkgutil

import nilfourier


def test_package_exports_the_union_of_the_module_lists():
    union = []
    for info in pkgutil.iter_modules(nilfourier.__path__):
        if info.name == "cli":  # the command line tool, not a library module
            continue
        module = importlib.import_module(f"nilfourier.{info.name}")
        for name in module.__all__:
            assert getattr(nilfourier, name) is getattr(module, name), (info.name, name)
        union += module.__all__
    assert len(union) == len(set(union))  # no name is exported by two modules
    assert sorted(nilfourier.__all__) == sorted(["__version__", *union])
