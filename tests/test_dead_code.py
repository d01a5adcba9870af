"""Guard against code in src/cplab that only tests call.

Every public top-level function and class, and every public method of a
top-level class, must be referenced by name somewhere in src/cplab
outside its own body, or in perfbench/ or scripts/. A name counts as
referenced when it appears as a variable, an attribute or an imported
name. A string counts only when it names a method in
`acceptance.CRITERIA`, the one table that `getattr` dispatches on.
Dunders are exempt. Every private (`_`-prefixed) module-level function
and class of src/cplab must be referenced the same way, so that no
helper survives for tests alone.

Every public module-level UPPER_CASE constant of src/cplab must be read
the same way: somewhere in src/cplab outside its own assignment, or in
perfbench/ or scripts/.

Every public field of a public dataclass in src/cplab must be read as
an attribute (`x.field`) somewhere in src/cplab, perfbench/ or scripts/,
unless the class reads all its fields itself through
`dataclasses.fields` (as a serializer does).

Every defaulted parameter of those functions and methods (and of a
public class's `__init__`) must be passed by some call in src/cplab,
perfbench/ or scripts/: by keyword, by position, or through `*` or
`**`. Calls are matched to definitions by name alone, so a call to
another function of the same name also counts.
"""

import ast
import math
from collections import Counter, defaultdict
from pathlib import Path

from cplab.acceptance import CRITERIA

ROOT = Path(__file__).resolve().parents[1]
DISPATCHED = {method for method, _ in CRITERIA}

ALLOWED = {
    # the only reader of `cplab family`'s family.txt; it validates that file
    "read_family",
}

ALLOWED_FIELDS = {
    # the resolve search's raw probe count: the phase metrics of every run
    # (ROADMAP open item 4) will report it
    "ResolvedSet.query_probes",
}

ALLOWED_DEFAULTS = {
    # the console-script entry point: the installed `cplab` command calls
    # it with no argument and it reads sys.argv; tests pass argv instead
    "cli.main(argv)",
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


def _private_defs(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and node.name.startswith("_") and not node.name.endswith("__"):
            yield node


def _public_constants(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper() and target.id[0] != "_":
                yield target.id, node


def _references():
    """The parsed src/cplab modules, the names referenced across them,
    and the names referenced in perfbench/ and scripts/."""
    modules = [
        (path.name, ast.parse(path.read_text()))
        for path in sorted((ROOT / "src" / "cplab").glob("*.py"))
    ]
    in_src = sum((_names(tree) for _, tree in modules), Counter())
    outside = Counter()
    for directory in ("perfbench", "scripts"):
        for path in sorted((ROOT / directory).glob("*.py")):
            outside += _names(ast.parse(path.read_text()))
    return modules, in_src, outside


def test_every_public_symbol_has_a_caller():
    modules, in_src, outside = _references()
    unused = []
    for module, tree in modules:
        for qualname, node in _public_defs(tree):
            if node.name in ALLOWED or outside[node.name]:
                continue
            if in_src[node.name] == _names(node)[node.name]:  # only its own body
                unused.append(f"{module}: {qualname}")
    assert not unused, "no caller outside tests: " + ", ".join(unused)


def test_every_private_module_symbol_has_a_caller():
    modules, in_src, outside = _references()
    unused = [
        f"{module}: {node.name}"
        for module, tree in modules
        for node in _private_defs(tree)
        if not outside[node.name] and in_src[node.name] == _names(node)[node.name]
    ]
    assert not unused, "no caller outside tests: " + ", ".join(unused)


def test_every_public_constant_has_a_reader():
    modules, in_src, outside = _references()
    unread = []
    for module, tree in modules:
        for name, node in _public_constants(tree):
            if outside[name] or in_src[name] > _names(node)[name]:  # more than its assignment
                continue
            unread.append(f"{module}: {name}")
    assert not unread, "no reader outside tests: " + ", ".join(unread)


def _dataclass_fields(tree):
    """(Class.field, field) of each public field of a public dataclass."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        decorators = (getattr(d, "func", d) for d in node.decorator_list)
        if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
            continue
        if _names(node)["fields"]:  # it reads every field by iterating them
            continue
        for member in node.body:
            target = getattr(member, "target", None)
            if isinstance(member, ast.AnnAssign) and not target.id.startswith("_"):
                yield f"{node.name}.{target.id}", target.id


def test_every_public_dataclass_field_is_read():
    read = Counter()
    for directory in ("src/cplab", "perfbench", "scripts"):
        for path in sorted((ROOT / directory).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read[node.attr] += 1
    unread = []
    for path in sorted((ROOT / "src" / "cplab").glob("*.py")):
        for qualname, name in _dataclass_fields(ast.parse(path.read_text())):
            if not read[name] and qualname not in ALLOWED_FIELDS:
                unread.append(f"{path.stem}.{qualname}")
    assert not unread, "dataclass fields no code outside tests reads: " + ", ".join(unread)


def _signatures(tree):
    """(called name, label, arguments, bound) of each public function,
    public method and public class's `__init__`; callers do not pass a
    bound method's first parameter."""
    for qualname, node in _public_defs(tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                    yield node.name, f"{qualname}.__init__", member.args, True
        else:
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            yield node.name, qualname, node.args, "." in qualname and not static


def _defaulted(args, bound):
    """(position, name) of each defaulted parameter, the position
    counted among the arguments a call passes; None when keyword-only."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield index - bound, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls():
    """Per called name, each call's (positions it fills, keywords it
    names): a `*` argument fills every position, and `**` shows up as
    the keyword None."""
    calls = defaultdict(list)
    for directory in ("src/cplab", "perfbench", "scripts"):
        for path in sorted((ROOT / directory).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    star = any(isinstance(arg, ast.Starred) for arg in node.args)
                    filled = math.inf if star else len(node.args)
                    calls[name].append((filled, {k.arg for k in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_passed():
    calls = _calls()
    unpassed = []
    for path in sorted((ROOT / "src" / "cplab").glob("*.py")):
        for name, qualname, args, bound in _signatures(ast.parse(path.read_text())):
            for position, param in _defaulted(args, bound):
                label = f"{path.stem}.{qualname}({param})"
                passed = any(
                    param in keywords
                    or None in keywords
                    or (position is not None and position < filled)
                    for filled, keywords in calls[name]
                )
                if not passed and label not in ALLOWED_DEFAULTS:
                    unpassed.append(label)
    assert not unpassed, "defaulted but never passed outside tests: " + ", ".join(unpassed)
