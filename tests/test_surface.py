"""Keep the public surface small: every public name in src/ has a user.

A public name is a top-level function, class or constant of a module under
src/scalingfilter/, or a method of such a class, whose name does not start
with an underscore. It has a user when some file of src/ or bench/ reads it
outside the lines of its own definition: as a name, an attribute, an
imported name, or a string literal (bench/launcher.py names the functions
it wraps as strings). A method is matched by its name alone, whatever the
object it is read from. A name that only the tests reach fails here: delete
it, or give it an entry with a reason in ``ALLOWED``.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scalingfilter"

ALLOWED: dict[str, str] = {}


def _lines(node):
    """First line (its decorators included) and last line of a definition."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])]), node.end_lineno


def _public_definitions(tree):
    """(qualified name, name, first line, last line) of each public top-level definition
    and of each public method of a public top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield (name, name, *_lines(node))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", item.name, *_lines(item))


def _uses(tree):
    """Line numbers at which each name is read."""
    lines = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            lines[node.id].append(node.lineno)
        elif isinstance(node, ast.Attribute):
            lines[node.attr].append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                lines[alias.name].append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            lines[node.value].append(node.lineno)
    return lines


def _unused_public_names():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, start, end in _public_definitions(trees[path]):
            used = any(
                not (other == path and start <= line <= end)
                for other, by_name in uses.items()
                for line in by_name.get(name, ())
            )
            if not used:
                unused.add(f"{path.stem}.{qualified}")
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    unused = _unused_public_names()
    assert unused - set(ALLOWED) == set(), "public names only the tests reach"


def test_allowlist_lists_only_unused_names():
    assert set(ALLOWED) <= _unused_public_names(), "an allowed name has a user now: drop its entry"
