"""The packages' public names: resolved on first use, to their definitions.

Every package resolves its ``__all__`` names lazily (a PEP 562 module
``__getattr__``), so importing it loads no submodule
(``tests/test_startup.py`` checks that in a fresh interpreter).  Here:
each name resolves to the very object its defining module binds and is
listed by ``dir()``, a star import binds them all, an unknown name is an
``AttributeError``, and the README's imports still run.
"""

import importlib
import pathlib
import re
import sys
import types

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.dbms",
    "repro.sim",
    "repro.queueing",
    "repro.workloads",
    "repro.experiments",
    "repro.metrics",
    "repro.priority",
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _defining_modules(name: str, value):
    """The module defining a class or function; for plain data, every
    loaded non-package ``repro`` module binding ``name``."""
    if isinstance(value, (type, types.FunctionType)):
        return [sys.modules[value.__module__]]
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.")
        and not hasattr(module, "__path__")
        and name in vars(module)
    ]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_names_resolve_to_their_definitions(package_name):
    package = importlib.import_module(package_name)
    listed = dir(package)
    for name in package.__all__:
        value = getattr(package, name)
        assert name in listed, f"{package_name}.{name} missing from dir()"
        if name == "__version__":
            continue
        homes = _defining_modules(name, value)
        assert homes, f"no module defines {package_name}.{name}"
        for module in homes:
            assert vars(module)[name] is value, (
                f"{package_name}.{name} is not {module.__name__}.{name}"
            )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_star_import_binds_every_public_name(package_name):
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_unknown_name_is_an_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_readme_imports_run():
    imports = re.findall(
        r"^[ \t]*((?:from|import) repro\b[^\n]*)$", README.read_text(), re.MULTILINE
    )
    assert imports
    for statement in imports:
        exec(statement, {})
