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

    with open(logsae.cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {
        name
        for name, value in vars(logsae.cli).items()
        if isinstance(value, types.ModuleType) and value.__name__.startswith("logsae")
    } | {  # and the modules a command imports inside its own function
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    reads = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert reads and {"simulation", "dataio"} <= modules
    assert [n for n in reads if _is_private(n.split(".")[1])] == []


# the modules whose arrays are their own: `model` builds a checked
# dataset, and `mspe` and `simulation` build the batches they draw
ARRAY_BUILDERS = ("logsae.model", "logsae.mspe", "logsae.simulation")


@pytest.mark.parametrize("name", [m for m in MODULES if m != "logsae._arrays"])
def test_only_arrays_builds_batches_and_reads_its_private_names(name):
    # an `AreaArrays` is four arrays with one shape rule, so only the
    # modules that make the arrays build one; no module outside `_arrays`
    # reaches a private `_arrays` name
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
    assert bool(built) == (name in ARRAY_BUILDERS)
    assert [n.attr for n in reads if _is_private(n.attr)] == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "logsae.model"])
def test_only_model_builds_a_dataset_unchecked(name):
    # every other module goes through `Dataset.from_columns`, which checks it
    with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    called = [
        getattr(node.func, "id", getattr(node.func, "attr", None))  # f() or x.f()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    assert "Dataset" not in called


def test_mspe_has_one_chunked_refit_loop():
    # the jackknife and the bootstrap share one refit-and-sum loop, so a
    # new resampler reuses it instead of adding another copy
    import logsae.mspe

    with open(logsae.mspe.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    callers = {"fit_batch": set(), "batches": set()}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "_arrays"
                    and node.func.attr in callers
                ):
                    callers[node.func.attr].add(fn.name)
    assert callers == {"fit_batch": {"_refit_sums"}, "batches": {"_refit_sums"}}


FIT_SETTINGS = {"max_iterations", "rel_tolerance", "beta_init"}


def _functions(name):
    with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]


@pytest.mark.parametrize("name", ["logsae.mspe", "logsae.simulation"])
def test_the_fit_settings_travel_as_one_config(name):
    # a fit setting is a `FitConfig` field, so a new one is added in one
    # place instead of to every signature between the API and the kernel
    params = {
        f"{fn.name}({arg.arg})"
        for fn in _functions(name)
        for arg in ast.walk(fn.args)
        if isinstance(arg, ast.arg) and arg.arg in FIT_SETTINGS
    }
    assert params == set()


def test_only_the_fit_kernel_reads_the_stopping_rule():
    # `FitConfig` checks its fields; the rest of the package hands the
    # config on, and only `fit_batch` reads when a fit stops
    readers = {
        f"{name}.{fn.name}"
        for name in MODULES
        for fn in _functions(name)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and node.attr in {"max_iterations", "rel_tolerance"}
    }
    assert readers == {"logsae._arrays.fit_batch", "logsae.estimation.__post_init__"}
