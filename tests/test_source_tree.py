"""Checks on the library's source tree itself, by static analysis."""
import ast
from collections import Counter
from pathlib import Path

import fastswitch

SRC = Path(fastswitch.__file__).resolve().parent


def loaded_names(node) -> list:
    """Every name that node loads, bare or as an attribute, once per load."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_top_level_definition_is_used_or_exported():
    """A top-level function or class that no other top-level statement of
    the package reads, and that fastswitch.__all__ does not export, is dead
    code, such as a helper left behind by a refactor.  Imports do not count
    as uses, and neither does a definition's reference to itself."""
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    uses = [(stmt, set(loaded_names(stmt))) for _, stmt in statements
            if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    definitions = [(module, stmt) for module, stmt in statements
                   if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    assert definitions
    unused = [f"{module}:{defn.name}" for module, defn in definitions
              if defn.name not in fastswitch.__all__
              and not any(defn.name in names for stmt, names in uses if stmt is not defn)]
    assert unused == []


def test_every_method_is_used():
    """A method or property of a package class whose name no other package
    code reads is dead code too, such as a coefficient that only the tests
    evaluate; exports do not save it.  A name counts as read when it is
    loaded more often across the package than inside its own definition.
    Special methods, which Python calls itself, are exempt."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    loads = Counter(name for tree in trees for name in loaded_names(tree))
    methods = [(cls.name, fn) for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef)
               and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    assert methods
    unused = [f"{cls}.{fn.name}" for cls, fn in methods
              if loads[fn.name] <= loaded_names(fn).count(fn.name)]
    assert unused == []
