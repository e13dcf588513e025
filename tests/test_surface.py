"""Guards on what other code relies on: every name ``mgv`` exports, and
every function, method and class ``src/mgv`` defines, has a caller outside
its own definition, and every function the benchmark's tracer wraps still
exists.  They read source files with ``ast``; nothing outside ``src/mgv`` is
imported or run."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mgv"
# Where an exported name may be reached: the library, the demos and the gate.
CALLERS = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported_names() -> list[str]:
    return [alias.asname or alias.name
            for node in parse(PACKAGE / "__init__.py").body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced_names(paths) -> set[str]:
    """Names loaded or stored as variables or attributes, in any of ``paths``.
    A ``def`` or ``class`` statement names its own function or class without
    a ``Name`` node, so a definition alone does not count."""
    found = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_exported_name_is_reached_outside_its_definition():
    exported = exported_names()
    assert len(exported) > 50
    reached = referenced_names(CALLERS)
    assert [name for name in exported if name not in reached] == []


def defined_names() -> list[tuple[str, str]]:
    """(module file, name) for every function, method and class defined in
    ``src/mgv``, at any depth, except dunder names and ``__init__.py``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(path.name, node.name) for path in CALLERS if path.parent == PACKAGE
            for node in ast.walk(parse(path))
            if isinstance(node, kinds) and not node.name.startswith("__")]


def test_every_definition_is_reached_outside_its_definition():
    defined = defined_names()
    assert len(defined) > 150
    reached = referenced_names(CALLERS)
    assert [(module, name) for module, name in defined if name not in reached] == []


def tracer_targets() -> list[tuple[str, str, str]]:
    """``perfbench/tracer.py``'s ``WRAPPED`` list, read as a literal."""
    for node in parse(ROOT / "perfbench" / "tracer.py").body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no WRAPPED list")


@pytest.mark.parametrize("module,attr,defining", tracer_targets(),
                         ids=lambda part: part)
def test_every_tracer_target_exists(module, attr, defining):
    """The tracer looks each name up on ``mgv.<module>``; it must be the
    function ``mgv.<defining>`` defines."""
    looked_up = getattr(importlib.import_module(f"mgv.{module}"), attr, None)
    assert looked_up is not None, f"mgv.{module}.{attr}"
    assert looked_up is getattr(importlib.import_module(f"mgv.{defining}"), attr)
