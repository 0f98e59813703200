"""Every exported name resolves, so a deletion cannot leave an export behind."""

import importlib
import pkgutil

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
