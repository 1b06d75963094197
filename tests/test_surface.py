"""One public surface: every public name in ``src/khinfam`` has a caller in
the package, or is kept on purpose for a reason written here.

A public name is a top-level function or class, or a method of a top-level
class, whose name does not start with an underscore (dunders are called by
operators, not by name). It has a caller when its name occurs as a word
anywhere in ``src/khinfam`` outside its own definition.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "khinfam"

# the only public names with no caller in the package, and why each stays
KEPT = {
    "series.schoolbook_mul": "the independent oracle of series.mul, which tests and "
                             "perfbench/make_refs.py check mul against",
    "series.scale": "perfbench/make_refs.py checks exp(log f) = f / f0 with it",
    "series.log_series": "perfbench's exact pool times it as one of the series kernels",
    "large_powers.estimate_auto": "perfbench's saddle pool runs it",
    "catalog.axis_asymptotic": "waits on one Mellin record per partition shape, which "
                               "decides whether the closed forms read it or it moves to tests",
}


def _public_defs(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def uncalled() -> set[str]:
    """module.name of every public name whose only occurrence is its own definition."""
    texts = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = set()
    for module, text in texts.items():
        lines = text.splitlines(keepends=True)
        others = "".join(t for m, t in texts.items() if m != module)
        for node in _public_defs(ast.parse(text)):
            if node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = "".join(lines[:first] + lines[node.end_lineno:]) + others
            if not re.search(rf"\b{node.name}\b", rest):
                found.add(f"{module}.{node.name}")
    return found


def test_every_public_name_has_a_caller_or_a_stated_reason():
    stray = sorted(uncalled() - set(KEPT))
    assert not stray, f"public names only tests call; give them a caller, move or delete them: {stray}"


def test_every_kept_name_still_lacks_a_caller():
    stale = sorted(set(KEPT) - uncalled())
    assert not stale, f"kept names that now have a caller or are gone; drop them from KEPT: {stale}"
