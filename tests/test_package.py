"""The package's export list names only what the package holds, once each."""

import ast
import collections
import pathlib

import sympulse
from sympulse import conserve, experiments, problems, stepper, tableau

MODULES = (tableau, problems, stepper, conserve, experiments)


def test_every_export_resolves():
    missing = [name for name in sympulse.__all__ if not hasattr(sympulse, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    counts = collections.Counter(sympulse.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_the_package_exports_what_its_modules_declare():
    for module in MODULES:
        foreign = [
            name for name in module.__all__
            if getattr(module, name).__module__ != module.__name__
        ]
        assert foreign == [], module.__name__
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert set(sympulse.__all__) == {"__version__", *declared}


def test_init_imports_no_export_by_name():
    tree = ast.parse(pathlib.Path(sympulse.__file__).read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert set(imported) <= {"*", *(m.__name__.rpartition(".")[2] for m in MODULES)}
