"""The package ships only code its own modules reach, exports what it
names, and imports nothing but numpy beyond the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import corrosim

SRC = Path(corrosim.__file__).parent
# a method named like an array attribute (`view`, `copy`, ...) is not used
# by `arr.copy()`; only a lookup on its class, `cls` or `self` reaches it
ARRAY_ATTRS = frozenset(dir(np.ndarray))


def definitions(tree):
    """Functions and classes at any depth, nested ones included, as (name,
    first line, last line, owner), owner being the class of a method and
    None otherwise; dunder methods run implicitly."""
    owners = {id(item): node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = owners.get(id(node))
            if not (owner and node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno, owner


def references(tree):
    """Names read and attributes looked up, with their lines and the name an
    attribute is looked up on (None for a name, or for a lookup on anything
    but a name); imports and `__all__` strings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, node.lineno, base


def reaches(ref, base, name, owner):
    if ref != name:
        return False
    return not (owner and name in ARRAY_ATTRS) or base in (owner, "cls", "self")


def test_every_definition_is_used_inside_the_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = [(name, base, module, line) for module, tree in trees.items()
            for name, line, base in references(tree)]
    unused = []
    for module, tree in trees.items():
        for name, first, last, owner in definitions(tree):
            if not any(reaches(ref, base, name, owner)
                       and not (where == module and first <= line <= last)
                       for ref, base, where, line in refs):
                unused.append(f"{module}:{first} {name}")
    assert not unused, "defined in src but used only from outside it: " + ", ".join(unused)


def test_all_names_resolve():
    missing = [name for name in corrosim.__all__ if not hasattr(corrosim, name)]
    assert not missing


def test_cli_import_loads_only_numpy_beyond_the_standard_library():
    # every run pays for what importing the command line loads; scipy,
    # sympy, hypothesis and pytest are installed for the tests, so a stray
    # import of one of them would show here. Modules the interpreter loads
    # at startup (site hooks) are not the package's.
    code = ("import sys; before = set(sys.modules); import corrosim.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["corrosim", "numpy"]
