"""The package's import structure.

No module imports or reads another's private names: a name that opens
with an underscore (dunders aside) belongs to its module, and what another
module needs from it is exported under a public name.  The modules
import one another in layers, so that no import runs both ways and the
stage solver stays apart from how tableaux are built.  And every name a
module imports from the package is used there, so that no name is kept
only for something outside the module to patch.
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


def unused_imports(source):
    """(line, name) for every name that `source` imports from the package
    and neither reads as a name nor lists in `__all__`."""
    imported, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sympulse":
                    imported.append((node.lineno, alias.asname or "sympulse"))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                used.update(
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_name_a_module_imports_from_the_package_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .stepper import step\n", [(1, "step")]),
        # a name in a comment or a string is not a use
        ("from .stepper import step  # for a patcher\nx = 'step'\n", [(1, "step")]),
        ("from . import tableau as t\n", [(1, "t")]),
        ("import sympulse.conserve\n", [(1, "sympulse")]),
        ("from .stepper import step\nstep(1)\n", []),
        ("from .tableau import butcher as b\nx = b\n", []),
        ("from . import tableau\ntableau.butcher(1)\n", []),
        ("from .tableau import butcher\n__all__ = ['butcher']\n", []),
        ("from .tableau import butcher\n__all__ = []\n__all__ += ['butcher']\n", []),
        ("from .tableau import *\n", []),
        ("from numpy import pi\n", []),
    ],
)
def test_finds_names_imported_from_the_package_and_not_used(source, found):
    assert unused_imports(source) == found


# the package's modules in layer order, `__init__` standing for the package
# itself: each imports only modules before it, except that `tableau` and
# `problems` import none and `stepper` only `problems`, so that a solve
# takes whatever tableau it is given, however it was built
LAYERS = ("tableau", "problems", "stepper", "conserve", "experiments", "__init__", "cli")
ALLOWED = {name: set(LAYERS[:i]) for i, name in enumerate(LAYERS)}
ALLOWED["problems"] = set()
ALLOWED["stepper"] = {"problems"}


def package_imports(source):
    """The sympulse modules that `source` imports, `__init__` for the
    package itself (as `from . import __version__` does)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            module = (node.module or "").removeprefix("sympulse").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name if a.name in LAYERS else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sympulse":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_only_the_layers_below(name):
    assert package_imports((SRC / f"{name}.py").read_text()) <= ALLOWED[name]


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .tableau import butcher\n", {"tableau"}),
        ("from . import problems as problems_mod\n", {"problems"}),
        ("from . import __version__\n", {"__init__"}),
        ("from sympulse.stepper import step\n", {"stepper"}),
        ("import sympulse.conserve\nimport sympulse\n", {"conserve", "__init__"}),
        ("def late():\n    from .experiments import integrate\n", {"experiments"}),
        ("import numpy as np\nfrom math import comb\n", set()),
    ],
)
def test_finds_the_package_modules_a_source_imports(source, found):
    assert package_imports(source) == found
