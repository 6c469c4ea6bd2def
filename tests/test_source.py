"""Checks on the source of ``handover`` itself, read as syntax trees."""

import ast
from pathlib import Path

import handover

SOURCES = sorted(Path(handover.__file__).parent.glob("*.py"))


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def declared_fields(trees):
    """(class, field) of every field a dataclass declares."""
    return [
        (node.name, statement.target.id)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for statement in node.body
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
    ]


def loaded_attributes(trees):
    """The name of every attribute the code reads as ``x.name``."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_somewhere():
    # no state that is written but never read: a field only a state dump shows is bytes in every dump for nothing
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    fields = declared_fields(trees)
    assert ("Connection", "threads") in fields and len(fields) > 30  # the scan sees the engine's dataclasses
    loaded = loaded_attributes(trees)
    assert [f"{cls}.{name}" for cls, name in fields if name not in loaded] == []
