import importlib
import pkgutil

import gwel


def test_every_exported_name_resolves():
    # a name deleted from a module must leave its __all__ and the package's
    modules = [gwel] + [
        importlib.import_module(f"gwel.{info.name}")
        for info in pkgutil.iter_modules(gwel.__path__)
    ]
    assert {"gwel.growth", "gwel.lattice"} <= {mod.__name__ for mod in modules}
    for mod in modules:
        names = getattr(mod, "__all__", ())  # cli, errors and words declare none
        missing = [name for name in names if not hasattr(mod, name)]
        assert missing == [], mod.__name__
        assert len(set(names)) == len(names), mod.__name__
