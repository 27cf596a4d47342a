"""Every public function, class and class member of the package has a caller outside tests.

A name defined at the top level of ``src/fedkme/*.py`` counts as used when
some module under ``src/``, ``perfbench/`` or ``demos/`` names it as a Name,
an Attribute or an import alias, outside the definition itself.  A method,
property or dataclass field of a public class counts as used when such a
module reads it as an attribute outside its own class's ``__post_init__``.
Oracles that only tests call belong in ``tests/reference_kme.py``.  A config
key counts as used when ``cli.py`` reads its ``ExperimentConfig`` field
outside the checks and the codec.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedkme"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench", ROOT / "demos")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# A public definition that nothing outside tests calls, with the reason it stays.
KEPT_DEFINITIONS = {
    # the generators' sampled held-out sets: jobs score by exact risk, and
    # test_A7 and the exactness tests of that risk draw these sets
    "concept_shift_test_sets",
    "covariate_shift_test_sets",
}


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


def _caller_trees() -> dict[Path, ast.Module]:
    """The parsed modules under ``src/``, ``perfbench/`` and ``demos/``, by path."""
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in CALLER_DIRS
        for path in sorted(root.rglob("*.py"))
    }


def test_every_public_definition_has_a_non_test_caller():
    trees = _caller_trees()
    names = {path: _referenced_names(tree) for path, tree in trees.items()}
    unused, defined = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(used for other, used in names.items() if other != path))
        for node in trees[path].body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            defined.add(node.name)
            if node.name not in elsewhere | _referenced_names(trees[path], skip=node) | KEPT_DEFINITIONS:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == [], "public definitions with no caller in src/, perfbench/ or demos/: " + ", ".join(unused)
    assert KEPT_DEFINITIONS <= defined, "kept definitions the package no longer has"


# A public class member that nothing reads yet, with the reason it stays.
KEPT_MEMBERS = {
    # perfbench/objective.py passes c= and perfbench/common.py sets qagg.step_scale;
    # ROADMAP item 1 re-points the benchmark, and then the field goes
    "QaggConfig.c",
}


def _attribute_reads(tree: ast.AST) -> set[tuple[str, ast.ClassDef | None]]:
    """(name, class) for every attribute the tree reads; class is the one whose ``__post_init__`` holds the read."""
    reads = set()
    stack: list[tuple[ast.AST, ast.ClassDef | None]] = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            in_post_init = isinstance(node, ast.ClassDef) and getattr(child, "name", None) == "__post_init__"
            stack.append((child, node if in_post_init else owner))
    return reads


def test_every_public_class_member_is_read_outside_tests():
    """Methods, properties and dataclass fields of public classes are read somewhere under src/, perfbench/ or demos/.

    A read inside the class's own ``__post_init__`` (its validation) does not count.
    """
    trees = _caller_trees()
    reads = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                else:
                    continue
                if name.startswith("_") or f"{cls.name}.{name}" in KEPT_MEMBERS:
                    continue
                if not any(attr == name and owner is not cls for attr, owner in reads):
                    unread.append(f"{path.relative_to(ROOT)}:{item.lineno} {cls.name}.{name}")
    assert unread == [], "public class members nothing under src/, perfbench/ or demos/ reads: " + ", ".join(unread)


# An ExperimentConfig field that no computation reads, with the reason it stays.
KEPT_CONFIG_FIELDS = {
    # perfbench/common.py sets experiment.test_size in every workload's config;
    # ROADMAP item 2 drops the key in the same change that stops setting it
    "test_size",
}
# cli.py functions whose reads of the config do not count: its checks and its codec
CONFIG_PLUMBING = {"validate_config", "serialize_config", "parse_config", "load_config"}


def test_every_config_key_is_read_by_a_computation():
    """Each ``ExperimentConfig`` field is read as ``cfg.<name>`` in cli.py outside its checks and codec."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    (config,) = (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    fields = {item.target.id for item in config.body if isinstance(item, ast.AnnAssign)}
    reads = {
        node.attr
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name not in CONFIG_PLUMBING
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cfg"
    }
    unread = sorted(fields - reads - KEPT_CONFIG_FIELDS)
    assert unread == [], "config fields that only the checks and the codec read: " + ", ".join(unread)
    assert KEPT_CONFIG_FIELDS <= fields - reads, "kept config fields that are gone or now read"
