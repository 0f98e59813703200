"""Every exported name resolves, so a deletion cannot leave an export behind."""

import ast
import importlib
import pkgutil
import types

import pytest

import logsae

# __main__ runs the CLI when imported
MODULES = [
    info.name
    for info in pkgutil.iter_modules(logsae.__path__, "logsae.")
    if info.name != "logsae.__main__"
]


@pytest.mark.parametrize("name", ["logsae", *MODULES])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_of_the_package():
    namespace = {}
    exec("from logsae import *", namespace)
    assert set(logsae.__all__) <= set(namespace)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_the_cli_uses_only_public_names_of_the_package():
    # the CLI goes through the same public API as any other caller
    import logsae.cli

    with open(logsae.cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = []  # dotted names the CLI imports from the package
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.split(".")[0] == "logsae":
                names += [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "logsae"]
    assert [n for n in names if any(map(_is_private, n.split(".")))] == []


def test_the_cli_reads_only_public_names_of_the_package_modules():
    # `from . import simulation` is public; `simulation._grid` is not
    import logsae.cli

    modules = {
        name
        for name, value in vars(logsae.cli).items()
        if isinstance(value, types.ModuleType) and value.__name__.startswith("logsae")
    }
    with open(logsae.cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reads = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert reads and {"simulation", "dataio"} <= modules
    assert [n for n in reads if _is_private(n.split(".")[1])] == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "logsae._arrays"])
def test_only_arrays_builds_batches_and_reads_its_private_names(name):
    # `_arrays` alone knows which fields of a batch are shared, so no other
    # module assembles `AreaArrays` by hand or reaches a private `_arrays` name
    with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_arrays"
    ]
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    built = [n.lineno for n in reads if n.attr == "AreaArrays" and id(n) in called]
    assert built == []
    assert [n.attr for n in reads if _is_private(n.attr)] == []
