"""Every public module-level function, class and constant under
src/spinorlab/, every public method of a class there and every field of
a dataclass there, is used by the library itself: a name referenced
only at its own definition or in the package's __init__.py serves the
tests or nothing, and belongs in the test that uses it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinorlab"


def _assigned_name(node):
    """The name an assignment statement binds, or None."""
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    return None


def _public_definitions(tree):
    """(name, node) for each public module-level function, class and
    constant."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif (name := _assigned_name(node)) is not None:
            out.append((name, node))
    return [(name, node) for name, node in out if not name.startswith("_")]


def _is_dataclass(node):
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Name) and func.id == "dataclass":
            return True
    return False


def _dataclass_fields(tree):
    """(class.field, node) for each annotated field of a dataclass."""
    return [
        (f"{cls.name}.{field.target.id}", field)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
    ]


def _public_methods(tree):
    """(class.method, node) for each public method of a class."""
    return [
        (f"{cls.name}.{method.name}", method)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
    ]


def _references(tree, skip):
    """Names read in tree (as a bare name or an attribute), outside the
    nodes in skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_is_used_by_the_library():
    trees = _trees()
    unreached = []
    for module, tree in trees.items():
        for name, definition in _public_definitions(tree):
            used = any(
                name in _references(other, {definition})
                for key, other in trees.items()
                if key != "__init__.py"
            )
            if not used:
                unreached.append(f"{module[:-3]}.{name}")
    assert unreached == []


def _unread(members):
    """The members, per module tree, whose name the library never reads
    as an attribute; a local variable of the same name does not count."""
    trees = _trees()
    reads = set().union(
        *(_attribute_reads(tree) for key, tree in trees.items() if key != "__init__.py")
    )
    return [
        f"{module[:-3]}.{qualname}"
        for module, tree in trees.items()
        for qualname, _ in members(tree)
        if qualname.rsplit(".", 1)[1] not in reads
    ]


def test_every_dataclass_field_is_read_by_the_library():
    assert _unread(_dataclass_fields) == []


def test_every_public_method_is_read_by_the_library():
    # a method is called as an attribute, like a field is read
    assert _unread(_public_methods) == []
