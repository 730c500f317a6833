"""The public API after lazy exports: every package name still resolves.

Package ``__init__`` modules import nothing eagerly (``repro._lazy``);
each exported name is imported on first access.  These tests hold the
names to the objects their defining modules bind, and the runner's
artefact names to the modules they import.
"""

import importlib
import pkgutil
import sys
import types

import pytest

import repro

PACKAGES = ("repro",) + tuple(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__)
    if m.ispkg)


def _bound_in_a_module(name, obj):
    """Whether a plain (non-package) ``repro`` module binds ``obj`` as
    ``name``: where it is defined, not where it is re-exported."""
    return any(
        vars(module).get(name) is obj
        for key, module in list(sys.modules.items())
        if key.startswith("repro.") and not hasattr(module, "__path__"))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_defining_module(package):
    pkg = importlib.import_module(package)
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        if name == "__version__":
            continue
        if isinstance(obj, (type, types.FunctionType)):
            home = sys.modules[obj.__module__]
            assert getattr(home, obj.__name__) is obj, name
            assert not hasattr(home, "__path__"), name
        else:
            assert _bound_in_a_module(name, obj), name


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_lazy_names_and_unknown_names_raise(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError, match="no attribute"):
        getattr(pkg, "no_such_name")


def test_subpackages_and_submodules_resolve_as_attributes():
    assert repro.cloud.Fabric is importlib.import_module(
        "repro.cloud.fabric").Fabric
    assert repro.experiments.scalability is importlib.import_module(
        "repro.experiments.scalability")
    from repro.trace import materialize

    assert isinstance(materialize, types.ModuleType)
    assert repro.trace.workload_cache_stats is materialize.cache_stats


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["SweepEngine"] is repro.engine.core.SweepEngine
    assert namespace["__version__"] == "1.0.0"


def test_runner_names_are_the_artefact_modules_names():
    from repro.experiments import runner

    modules = [importlib.import_module(f"repro.experiments.{name}")
               for name in runner.NAMES]
    assert runner.NAMES == tuple(module.NAME for module in modules)
