"""Every public function and class of the package has a caller outside tests.

A name defined at the top level of ``src/fedkme/*.py`` counts as used when
some module under ``src/``, ``perfbench/`` or ``demos/`` names it as a Name,
an Attribute or an import alias, outside the definition itself.  Oracles that
only tests call belong in ``tests/reference_kme.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedkme"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench", ROOT / "demos")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names the tree uses as a Name, an Attribute or an import alias, outside ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_has_a_non_test_caller():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in CALLER_DIRS
        for path in sorted(root.rglob("*.py"))
    }
    names = {path: _referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(used for other, used in names.items() if other != path))
        for node in trees[path].body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere | _referenced_names(trees[path], skip=node):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == [], "public definitions with no caller in src/, perfbench/ or demos/: " + ", ".join(unused)
