"""The package's surface: every public name has a caller outside the tests,
and README's Python examples run."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "wideblock").glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))

#: Public names that stay although nothing outside the tests calls them.
ALLOWED_UNUSED = {
    # the proved closed form of W_r, checked set by set against brute force
    ("analysis", "w_set"),
    # settled with xor_ctr, which the benchmark's probe calls
    ("ctr", "xcb_ctr"),
    # the ideal world that the attacks' advantage is read against
    ("attacks", "IdealPermutationOracle"),
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The public module-level names and the public methods of public
    classes, each with the node that defines it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (m.name, m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and _public(m.name)
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name) and _public(t.id)]
    return found


def _uses(tree: ast.AST) -> list[tuple[str, tuple[int, ...]]]:
    """Every name, attribute and imported name the code refers to, each with
    the ids of the functions and classes it sits inside.  Strings do not
    count."""
    found = []

    def walk(node: ast.AST, inside: tuple[int, ...]) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            found.append((node.name.rpartition(".")[2], inside))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside += (id(node),)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, ())
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public name in ``src/wideblock`` is used by the package itself,
    outside its own definition, or by the benchmark; otherwise it is dead
    weight or belongs in ``tests/``.  Uses match by bare name, so any
    attribute of the same name counts.  An allowlisted name is still
    defined and still unused, so the list cannot outlive its reasons."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + BENCH}
    uses = [use for tree in trees.values() for use in _uses(tree)]
    unused = {
        (path.stem, name)
        for path in SRC
        for name, node in _definitions(trees[path])
        if not any(n == name and id(node) not in inside for n, inside in uses)
    }
    uncalled = sorted(f"{module}.{name}" for module, name in unused - ALLOWED_UNUSED)
    assert not uncalled, f"public names that only tests call: {', '.join(uncalled)}"
    stale = sorted(f"{module}.{name}" for module, name in ALLOWED_UNUSED - unused)
    assert not stale, f"allowlisted names that are gone or now called: {', '.join(stale)}"


def test_readme_python_examples_run():
    """Each ``python`` block of README.md runs in a fresh namespace; a
    failure's traceback names the README line."""
    text = (ROOT / "README.md").read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    for block in blocks:
        line = text.count("\n", 0, block.start()) + 2
        exec(compile(block.group(1), f"README.md:{line}", "exec"), {})
