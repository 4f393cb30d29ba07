"""Every exception class the package defines is raised somewhere in it."""

import ast
from pathlib import Path

import perch
from perch import errors


def raised_names():
    names = set()
    for path in Path(perch.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_perch_error_is_raised():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.PerchError)
               and obj is not errors.PerchError}
    assert len(defined) > 20
    assert sorted(defined - raised_names()) == []
