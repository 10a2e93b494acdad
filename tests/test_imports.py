"""Module boundaries inside the package: no module imports another's
private names; shared helpers get a public home instead. Every exception
class the package defines is raised somewhere in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "melzak"


def test_no_private_names_imported_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offending = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offending += [f"{path.name}:{node.lineno}: from {'.' * node.level}"
                              f"{node.module or ''} import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offending, "\n".join(offending)


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert defined
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    assert not defined - raised, sorted(defined - raised)
