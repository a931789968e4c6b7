"""No module of the package imports or reads another's private names.

A name that opens with an underscore (dunders aside) belongs to its
module; what another module needs from it is exported under a public name.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sympulse"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _from_package(node):
    return node.level > 0 or node.module == "sympulse" or (node.module or "").startswith("sympulse.")


def private_uses(source):
    """(line, name) for every private name of another sympulse module that
    `source` imports, or reads as an attribute of a sympulse module it
    imported."""
    tree = ast.parse(source)
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            for alias in node.names:
                if _private(alias.name):
                    uses.append((node.lineno, alias.name))
                elif node.module is None or node.module == "sympulse":
                    # `from . import tableau` may bind a module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sympulse":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and ast.unparse(node.value) in modules
        ):
            uses.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return sorted(uses)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .tableau import _check_index, butcher\n", [(1, "_check_index")]),
        ("from sympulse.tableau import _frozen\n", [(1, "_frozen")]),
        ("from . import _private\n", [(1, "_private")]),
        ("from . import tableau\ntableau._cached_parts(2)\n", [(2, "tableau._cached_parts")]),
        ("from . import tableau as t\nx = t._EPS\n", [(2, "t._EPS")]),
        ("import sympulse.conserve\nsympulse.conserve._seed(1, 1)\n",
         [(2, "sympulse.conserve._seed")]),
    ],
)
def test_finds_private_names_of_the_package(source, found):
    assert private_uses(source) == found


@pytest.mark.parametrize(
    "source",
    [
        "from . import __version__\n",
        "def _own():\n    pass\n_own()\n",
        "from numpy import _globals\n",
        "import numpy as np\nnp._NoValue\n",
    ],
)
def test_allows_dunders_own_names_and_other_packages(source):
    assert private_uses(source) == []
