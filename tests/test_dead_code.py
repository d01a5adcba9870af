"""Guard against code in src/cplab that only tests call.

Every public top-level function and class, and every public method of a
top-level class, must be referenced by name somewhere in src/cplab
outside its own body, or in perfbench/ or scripts/. A name counts as
referenced when it appears as a variable, an attribute or an imported
name. A string counts only when it names a method in
`acceptance.CRITERIA`, the one table that `getattr` dispatches on.
Dunders are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

from cplab.acceptance import CRITERIA

ROOT = Path(__file__).resolve().parents[1]
DISPATCHED = {method for method, _ in CRITERIA}

ALLOWED = {
    # the only reader of `cplab family`'s family.txt; it validates that file
    "read_family",
}


def _names(tree):
    """How often each name is referenced under `tree`."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and node.value in DISPATCHED:
            names[node.value] += 1
    return names


def _public_defs(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def test_every_public_symbol_has_a_caller():
    modules = [
        (path.name, ast.parse(path.read_text()))
        for path in sorted((ROOT / "src" / "cplab").glob("*.py"))
    ]
    in_src = sum((_names(tree) for _, tree in modules), Counter())
    outside = Counter()
    for directory in ("perfbench", "scripts"):
        for path in sorted((ROOT / directory).glob("*.py")):
            outside += _names(ast.parse(path.read_text()))

    unused = []
    for module, tree in modules:
        for qualname, node in _public_defs(tree):
            if node.name in ALLOWED or outside[node.name]:
                continue
            if in_src[node.name] == _names(node)[node.name]:  # only its own body
                unused.append(f"{module}: {qualname}")
    assert not unused, "no caller outside tests: " + ", ".join(unused)
