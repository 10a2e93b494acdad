"""Module boundaries inside the package: no module imports another's
private names; shared helpers get a public home instead. No module imports
``scipy.optimize``: the package's one LP is solved in numpy. Every exception
class the package defines is raised somewhere in it, every private
module-level name is read in its module, and the shipped catalog stores
nothing that ``load_catalog`` does not read. Every function the benchmark's
tracer wraps still exists under its name."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from melzak import CatalogType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "melzak"


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


def test_no_module_imports_scipy_optimize():
    offending = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offending += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name == "scipy.optimize" or name.startswith("scipy.optimize.")]
    assert not offending, "\n".join(offending)


def test_an_off_origin_build_and_audit_leave_scipy_optimize_unloaded():
    # a pyramid's base plane passes through the origin, so its build finds
    # the interior point by the Chebyshev-centre LP
    code = ("import sys\n"
            "from melzak import audit, ngon_pyramid\n"
            "P = ngon_pyramid(6, 1.0, 1.2)\n"
            "assert min(h.offset for h in P.halfspaces) == 0.0\n"
            "audit(P, mode='candidate')\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


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


def test_every_private_module_name_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in sorted(defined - read)
                   if name.startswith("_") and not name.startswith("__")]
    assert not unread, unread


def test_catalog_entries_hold_only_what_load_catalog_reads():
    # load_catalog fills one CatalogType field from each entry key
    raw = json.loads((SRC / "data" / "polytope_types.json").read_text(encoding="utf-8"))
    fields = {f.name for f in dataclasses.fields(CatalogType)}
    assert raw["types"]
    assert all(set(entry) == fields for entry in raw["types"])


def test_every_traced_function_resolves():
    # the tracer looks each name of its LAYERS table up on its module, so a
    # name that is gone fails every benchmark run; read the table as source
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    assert layers
    missing = [f"{module}.{name}" for module, names in layers.values() for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, missing
