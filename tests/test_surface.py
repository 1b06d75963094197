"""One public surface: every public name in ``src/khinfam`` has a caller in
the package, or is kept on purpose for a reason written here.

A public name is a top-level function or class, or a method of a top-level
class, whose name does not start with an underscore (dunders are called by
operators, not by name). It has a caller when code anywhere in
``src/khinfam`` outside its own definition uses its name: as a name, an
attribute or an imported name. A word in a docstring or a comment is no
caller.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "khinfam"

# the only public names with no caller in the package, and why each stays
KEPT = {
    "series.schoolbook_mul": "the independent oracle of series.mul, which tests and "
                             "perfbench/make_refs.py check mul against",
    "series.scale": "perfbench/make_refs.py checks exp(log f) = f / f0 with it",
    "series.log_series": "perfbench's exact pool times it as one of the series kernels",
    "series.pow": "perfbench's exact pool calls S.pow as one of the series kernels",
    "large_powers.estimate_auto": "perfbench's saddle pool runs it",
}


def _public_defs(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def _uses(node: ast.AST) -> Counter:
    """How often code under ``node`` uses each name, attribute and imported name."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            uses.update(sub.name.split("."))
    return uses


def uncalled(src: Path = SRC) -> set[str]:
    """module.name of every public name that no code outside its own definition uses."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    everywhere = sum((_uses(tree) for tree in trees.values()), Counter())
    return {f"{module}.{node.name}"
            for module, tree in trees.items() for node in _public_defs(tree)
            if not node.name.startswith("_")
            and everywhere[node.name] == _uses(node)[node.name]}


def test_every_public_name_has_a_caller_or_a_stated_reason():
    stray = sorted(uncalled() - set(KEPT))
    assert not stray, f"public names only tests call; give them a caller, move or delete them: {stray}"


def test_every_kept_name_still_lacks_a_caller():
    stale = sorted(set(KEPT) - uncalled())
    assert not stale, f"kept names that now have a caller or are gone; drop them from KEPT: {stale}"


def test_a_name_only_prose_mentions_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        'def planted():\n    """planted is called by nothing."""\n\n\n'
        'def shown():\n    pass\n\n\n'
        'def imported():\n    pass\n'
    )
    (tmp_path / "b.py").write_text(
        '"""Callers of planted() and shown() in prose."""\n'
        'from .a import imported\n\n\n'
        'def _caller():\n    # planted()\n    return f"{shown()}"\n'
    )
    assert uncalled(tmp_path) == {"a.planted"}
