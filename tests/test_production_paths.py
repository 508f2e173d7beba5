"""Every name the package defines is used by the package itself.

Each top-level function, class and module constant, and each method that
is not a dunder, of a module under src/mwmusic must appear as a code token
(a NAME token, not a string or a comment) somewhere in the package outside
its own definition. Re-exports from `__init__.py` do not count as a use, so
a function only the tests or the README call fails here: it belongs in
`tests/oracles.py` or a test helper, and the package keeps one production
path per computation.
"""

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mwmusic"

# names that have no use in code by design
ALLOWED = {"__version__"}


def _definitions(tree: ast.Module):
    """(name, first line, last line) of every top-level function, class and
    constant, and every non-dunder method, decorators included."""
    def span(node):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return first, node.end_lineno

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield (node.name, *span(node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield (f"{node.name}.{item.name}", *span(item))
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield (name.id, *span(node))


def _name_tokens(path: Path):
    """(name, line) of every NAME token of the file."""
    with tokenize.open(path) as fh:
        return [
            (tok.string, tok.start[0])
            for tok in tokenize.generate_tokens(fh.readline)
            if tok.type == tokenize.NAME
        ]


def _unused_names() -> list[str]:
    modules = sorted(PACKAGE.glob("*.py"))
    tokens = {path: _name_tokens(path) for path in modules if path.name != "__init__.py"}
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, first, last in _definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            used = any(
                token == name and not (other == path and first <= line <= last)
                for other, found in tokens.items()
                for token, line in found
            )
            if not used and qualified not in ALLOWED:
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_definition_has_a_production_use():
    assert _unused_names() == []


def test_the_scan_sees_each_kind_of_definition():
    # a function, a class, a constant and a method the package defines and
    # uses, each found with its own span
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, first, last in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            found[f"{path.stem}.{qualified}"] = (first, last)
    for name in (
        "music.imaging_map", "music.SymmetryPlan", "music.DEFAULT_CEILING",
        "music.SymmetryPlan.over_domain", "__init__.__version__",
    ):
        first, last = found[name]
        assert 1 <= first <= last
