"""Every module in ``src/repro`` is reachable from a command, and the
sweep engine sits below the layers that use it.

A static walk of the import graph, rooted at ``python -m repro`` and at
every artefact module the CLI and the runner name (they import those by
string).  It follows ``import`` statements at any depth - function-level
imports included - and resolves ``from package import Name`` through
the package's ``lazy_exports`` table, the way first access does at run
time.  A module the walk never reaches is code no command runs: move it
next to its users (tests, examples) or delete it.
"""

import ast
import pathlib

from repro.__main__ import _EXPERIMENTS
from repro.experiments.runner import EXPERIMENTS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _lazy_table(tree):
    """The ``{name: ".module"}`` dict a package hands to lazy_exports."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    return {}


def _imports(tree, tables):
    """Every module an import statement in ``tree`` may load.  Imports
    in ``src/repro`` are absolute; a relative one would name no module
    here and so fail the test rather than pass it silently."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
                target = tables.get(node.module, {}).get(alias.name)
                if target:
                    yield node.module + target.partition(":")[0]


def _parse_src():
    """``({module: ast}, {package: lazy_exports table})`` of src/repro."""
    trees = {_module_name(path): ast.parse(path.read_text())
             for path in (SRC / "repro").rglob("*.py")}
    return trees, {name: _lazy_table(tree) for name, tree in trees.items()}


def _in_package(module, package):
    return module == package or module.startswith(package + ".")


def unreached_modules():
    trees, tables = _parse_src()
    artefacts = set(_EXPERIMENTS.values()) | {n for _, n in EXPERIMENTS}
    todo = ["repro.__main__"] + [f"repro.experiments.{n}" for n in artefacts]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in trees:
            continue
        seen.add(name)
        parts = name.split(".")
        todo += [".".join(parts[:i]) for i in range(1, len(parts))]
        todo += _imports(trees[name], tables)
    return sorted(set(trees) - seen)


def test_every_module_is_reachable_from_a_command():
    unreached = unreached_modules()
    assert not unreached, "no command reaches " + ", ".join(unreached)


def test_engine_imports_no_experiment_or_cloud_module():
    """The engine runs simulation sweeps for the layers above it; it
    imports none of them, at module level or inside a function."""
    trees, tables = _parse_src()
    above = ("repro.experiments", "repro.cloud")
    offending = sorted(
        f"{name} imports {target}"
        for name, tree in trees.items() if _in_package(name, "repro.engine")
        for target in _imports(tree, tables)
        if any(_in_package(target, package) for package in above))
    assert not offending, "; ".join(offending)
