"""Dead-code guard: every function, class and method defined in
``src/subfactor`` is used somewhere in ``src/`` outside its own definition,
as a name, as an attribute or in ``__all__``.

The scan goes by name only, so a method counts as used when any attribute
of that name is read anywhere.  Dunder methods are called by the language
and are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subfactor"

# names that nothing in src/ calls but the benchmark in bench/ does, with
# the reason they stay
EXEMPT = {
    "clear_reduction_cache": "bench/workloads.py empties the reduction "
                             "cache before each timed operation",
}


def _definitions(tree):
    """(name, first line, last line) of every def and class, decorators
    included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in
                                         node.decorator_list])
            yield node.name, first, node.end_lineno


def _uses(tree):
    """(name, line) of every name, attribute and ``__all__`` entry."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            for elt in node.value.elts:
                yield elt.value, elt.lineno


def unused_definitions(trees):
    """``file:line name`` of each definition in {file name: tree} that no
    use outside its own definition reaches."""
    uses = {}
    for fname, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((fname, line))
    unused = []
    for fname, tree in trees.items():
        for name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in EXEMPT:
                continue
            if not any(f != fname or not first <= line <= last
                       for f, line in uses.get(name, ())):
                unused.append(f"{fname}:{first} {name}")
    return unused


def _package():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_used():
    assert unused_definitions(_package()) == []


def test_guard_flags_unused_and_self_used_definitions():
    trees = {
        "a.py": ast.parse("def used():\n    return 1\n\n"
                          "def unused():\n    return used()\n\n"
                          "def recursive(n):\n    return recursive(n - 1)\n\n"
                          "class K:\n    def method(self):\n        pass\n"
                          "    def __len__(self):\n        return 0\n"),
        "b.py": ast.parse("__all__ = ['K']\nx = object().method\n"),
    }
    assert unused_definitions(trees) == ["a.py:4 unused", "a.py:7 recursive"]


def test_exemptions_are_still_defined():
    defined = {name for tree in _package().values()
               for name, _, _ in _definitions(tree)}
    assert set(EXEMPT) <= defined
