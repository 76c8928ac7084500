import importlib
import pkgutil

import projgrad


def test_every_exported_name_exists():
    # a name left in __all__ after its definition is deleted fails here
    modules = [importlib.import_module(f"projgrad.{m.name}") for m in pkgutil.iter_modules(projgrad.__path__)]
    assert len(modules) >= 9
    for module in modules:
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
        assert len(set(exported)) == len(exported), module.__name__
