"""Dead-code guards.

Every function, class and method defined in ``src/subfactor`` is used
somewhere in ``src/`` outside its own definition, as a name, as an
attribute or in ``__all__``.  And every parameter with a default of a
function there (methods aside) is passed, by keyword or by position, by
some call in ``src/``, ``tests/`` or ``bench/``: a default that no call
overrides is a constant, not a knob.

The scans go by name only, so a method counts as used when any attribute
of that name is read anywhere, and a call counts for every function of
its name.  Dunder methods are called by the language and are not checked.

Importing the package does no work beyond defining it: a module's
top-level statements are imports, defs and classes (decorated or not),
docstrings, the ``__main__`` guard, and assignments whose value calls
nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "subfactor"

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


def _functions(tree):
    """Every def that is not a method: those in a class body are skipped,
    with what they nest."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
            stack.append(child)


def _defaulted(fn):
    """(parameter, position or None for keyword-only) of each parameter
    of fn that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(tree):
    """(called name, positional count or None after a *splat, keywords or
    None after a **splat) of every call by name or attribute."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        if name is None:
            continue
        star = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield (name, None if star else len(node.args),
               None if None in keywords else keywords)


def unpassed_defaults(package, callers):
    """``file:line name(parameter)`` of each defaulted parameter of a
    function in {file name: tree} of the package that no call in the
    callers' trees passes."""
    calls = {}
    for tree in callers:
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
    out = []
    for fname, tree in package.items():
        for fn in _functions(tree):
            for param, pos in _defaulted(fn):
                if not any(
                        count is None or keywords is None
                        or param in keywords
                        or (pos is not None and pos < count)
                        for count, keywords in calls.get(fn.name, ())):
                    out.append(f"{fname}:{fn.lineno} {fn.name}({param})")
    return out


def _callers():
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "bench").glob("*.py")]
    return [ast.parse(path.read_text()) for path in sorted(paths)]


def test_every_default_is_passed_somewhere():
    assert unpassed_defaults(_package(), _callers()) == []


def test_guard_flags_unpassed_defaults():
    package = {
        "a.py": ast.parse(
            "def f(x, y=1, z=2, *, k=3):\n"
            "    def inner(n=4):\n        return n\n"
            "    return inner()\n\n"
            "class K:\n    def method(self, m=5):\n        pass\n\n"
            "def g(a=6):\n    pass\n\n"
            "def h(b=7):\n    pass\n"),
    }
    callers = [package["a.py"],
               ast.parse("f(0, 1)\nobject().f(0, k=2)\ng(*[])\n"
                         "h(**{})\n")]
    assert unpassed_defaults(package, callers) == [
        "a.py:1 f(z)", "a.py:2 inner(n)"]


def _is_main_guard(node):
    test = node.test
    return (isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def import_time_work(trees):
    """``file:line`` of each top-level statement in {file name: tree} that
    runs more than a definition when the module is imported."""
    out = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            if isinstance(node, ast.If) and _is_main_guard(node):
                continue
            if (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and node.value is not None
                    and not any(isinstance(n, ast.Call)
                                for n in ast.walk(node.value))):
                continue
            out.append(f"{fname}:{node.lineno}")
    return out


def test_importing_the_package_does_no_work():
    assert import_time_work(_package()) == []


def test_guard_flags_import_time_work():
    trees = {"a.py": ast.parse(
        '"""doc"""\n'
        "import os\n"
        "from math import gcd\n"
        "LIMIT = 8\n"
        "TABLE = {1: (2, 3)}\n"
        "WORDS = sorted(['b', 'a'])\n"
        "@decorate(1)\n"
        "def f():\n    return os.sep\n"
        "class K:\n    x = gcd(4, 6)\n"
        "print('loaded')\n"
        "for i in range(3):\n    pass\n"
        "if LIMIT:\n    f()\n"
        "COUNT: int = len(TABLE)\n"
        "if __name__ == '__main__':\n    f()\n")}
    assert import_time_work(trees) == ["a.py:6", "a.py:12", "a.py:13",
                                       "a.py:15", "a.py:17"]
