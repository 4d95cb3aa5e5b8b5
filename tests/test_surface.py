"""The library holds the pipeline and nothing else: every top-level
function, class and method defined in ``src/rauzyadic`` is named somewhere
in ``src/`` or ``scripts/`` outside its own definition, or is a name the
benchmark's tracer wraps.  Reference code that only the tests read lives
in ``tests/judges.py``.

The check matches names, not bindings: a method that shares its name with
one that is read, such as a second class's ``out_edges``, passes although
nothing calls it.  So the method names that more than one class defines are
pinned, each looked at by hand, and a new one fails until it is looked at."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "rauzyadic").glob("*.py"))
READERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py"))

# names kept with no caller yet, each with its reason
EXCEPTIONS = {
    "proper_contraction": "the proper S-adic representation of ROADMAP item 3(a) will use it",
}


def _traced_names() -> set[str]:
    """The attribute names that ``TRACED`` in perfbench/tracer.py wraps,
    read from the file's text: perfbench is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            traced = ast.literal_eval(node.value)
            return {part for _, path in traced.values() for part in path.split(".")}
    raise AssertionError("no TRACED table in perfbench/tracer.py")


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function and class
    and of each method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield item.name, item.lineno, item.end_lineno


def _uses(tree: ast.Module):
    """(name, line) of each name and attribute read or written in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno


def test_every_library_name_has_a_reader():
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    uses = {path: list(_uses(tree)) for path, tree in trees.items()}
    traced = _traced_names()
    unread = []
    for path in LIBRARY:
        for name, first, last in _definitions(trees[path]):
            # dunder methods are called by the language, not by name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in traced or name in EXCEPTIONS:
                continue
            if not any(used == name and (other != path or not first <= line <= last)
                       for other, found in uses.items() for used, line in found):
                unread.append(f"{path.name}: {name}")
    assert not unread, f"defined in src/ but read by no module of src/ or scripts/: {unread}"


def test_exceptions_are_still_defined():
    defined = {name for path in LIBRARY for name, _, _ in _definitions(ast.parse(path.read_text()))}
    assert set(EXCEPTIONS) <= defined


# the method names, other than dunders, that more than one class of src/
# defines, with those classes.  Each class's own method was found read in
# src/: DirectiveWord.alphabet_size by the oracle and the validator and
# ThetaAssignment.alphabet_size by extract_gamma; EvolutionRecord.line and
# Step.line by ExtractionReport.serialize; and the three serialize methods
# by the extract, validate and crosscheck commands.  Circuit.right_label is
# a field, not a method, so ReducedEdge.right_label is no longer shared
SHARED_METHODS = {
    "alphabet_size": {"DirectiveWord", "ThetaAssignment"},
    "line": {"EvolutionRecord", "Step"},
    "serialize": {"CrossReport", "ExtractionReport", "ValidityVerdict"},
}


def test_method_names_that_several_classes_define_are_pinned():
    owners: dict[str, set[str]] = {}
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        owners.setdefault(item.name, set()).add(node.name)
    assert {name: classes for name, classes in owners.items() if len(classes) > 1} == SHARED_METHODS


def _decorator_name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_plain_records_are_named_tuples():
    # a frozen dataclass exec-compiles its methods at import; a record that
    # neither validates its fields in __post_init__ nor caches a
    # cached_property is a NamedTuple, which costs nothing to define
    plain = []
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef)
                    and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)):
                continue
            names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            cached = any(_decorator_name(d) == "cached_property"
                         for item in node.body if isinstance(item, ast.FunctionDef)
                         for d in item.decorator_list)
            if "__post_init__" not in names and not cached:
                plain.append(f"{path.name}: {node.name}")
    assert not plain, f"plain records defined as dataclasses: {plain}"
