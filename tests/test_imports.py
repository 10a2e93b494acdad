"""Module boundaries inside the package: no module imports another's
private names; shared helpers get a public home instead."""

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
