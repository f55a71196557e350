"""Every public module-level function and class under src/spinorlab/ is
used by the library itself: a name referenced only at its own definition
or in the package's __init__.py serves the tests or nothing, and belongs
in the test that uses it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinorlab"


def _public_definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
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


def test_every_public_name_is_used_by_the_library():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unreached = []
    for module, tree in trees.items():
        for definition in _public_definitions(tree):
            used = any(
                definition.name in _references(other, {definition})
                for name, other in trees.items()
                if name != "__init__.py"
            )
            if not used:
                unreached.append(f"{module[:-3]}.{definition.name}")
    assert unreached == []
