"""The package ships only code its own modules reach, and exports what it
names."""

import ast
from pathlib import Path

import corrosim

SRC = Path(corrosim.__file__).parent


def definitions(tree):
    """Top-level functions and classes, and the methods of those classes,
    as (name, first line, last line); dunder methods run implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno, item.end_lineno


def references(tree):
    """Names read and attributes looked up, with their lines; imports and
    `__all__` strings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_used_inside_the_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = [(name, module, line) for module, tree in trees.items()
            for name, line in references(tree)]
    unused = []
    for module, tree in trees.items():
        for name, first, last in definitions(tree):
            if not any(ref == name and not (where == module and first <= line <= last)
                       for ref, where, line in refs):
                unused.append(f"{module}:{first} {name}")
    assert not unused, "defined in src but used only from outside it: " + ", ".join(unused)


def test_all_names_resolve():
    missing = [name for name in corrosim.__all__ if not hasattr(corrosim, name)]
    assert not missing
