"""Checks on the library's source tree itself, by static analysis."""
import ast
from pathlib import Path

import fastswitch

SRC = Path(fastswitch.__file__).resolve().parent


def referenced_names(node):
    """Every name that node loads, bare or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_top_level_definition_is_used_or_exported():
    """A top-level function or class that no other top-level statement of
    the package reads, and that fastswitch.__all__ does not export, is dead
    code, such as a helper left behind by a refactor.  Imports do not count
    as uses, and neither does a definition's reference to itself."""
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    uses = [(stmt, referenced_names(stmt)) for _, stmt in statements
            if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    definitions = [(module, stmt) for module, stmt in statements
                   if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    assert definitions
    unused = [f"{module}:{defn.name}" for module, defn in definitions
              if defn.name not in fastswitch.__all__
              and not any(defn.name in names for stmt, names in uses if stmt is not defn)]
    assert unused == []
