"""Every cache in the library is bounded, and the library has exactly the
caches listed here."""

import importlib
import inspect
import pkgutil

import qsymx


def _cached_functions():
    """(qualified name, function) for each object carrying cache_info() in
    a qsymx module or in a class defined there."""
    found = {}
    for info in pkgutil.iter_modules(qsymx.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("qsymx." + info.name)
        namespaces = [(module.__name__, vars(module))] + [
            ("%s.%s" % (module.__name__, name), vars(cls))
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for prefix, namespace in namespaces:
            for name, value in namespace.items():
                if callable(getattr(value, "cache_info", None)):
                    found.setdefault(id(value), ("%s.%s" % (prefix, name), value))
    return list(found.values())


def test_every_cache_has_a_finite_maxsize():
    cached = _cached_functions()
    names = sorted(name.rpartition(".")[2] for name, _ in cached)
    assert names == sorted([
        "_bivariate_catalan", "_falling_binomial", "_integral",
        "_mask_table", "_product_F", "_product_M", "_shared_key",
    ]), names
    for name, fn in cached:
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, (name, maxsize)
