"""One public surface: every public name in ``src/khinfam`` has a caller in
the package, or is kept on purpose for a reason written here.

A public name is a top-level function or class, or a method of a top-level
class, whose name does not start with an underscore (dunders are called by
operators, not by name). It has a caller when code anywhere in
``src/khinfam`` outside its own definition uses its name: as a name, an
attribute or an imported name. A word in a docstring or a comment is no
caller.

Uses are counted by bare name, so a name the package defines more than once
(two methods, or a method and a field) hides the one no code calls behind
the one it does. Each definition of such a name is flagged unless ``SHARED``
names the function that calls it, and that function uses the name.
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
    "family.Family.coeffs": "perfbench/make_refs.py checks exact_power_coeff against "
                            "fixed_k_polynomial(fam.coeffs, k) with it",
    "family.fulcrum_derivs": "perfbench's saddle pool times it as the fulcrum op",
}

# public names the package defines more than once, each with the function
# that calls it
SHARED = {
    "catalog.Mellin.k": "asym.closed_partition_asym",
    "errors.KhinfamError.name": "cli.main",
}


def _public_defs(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef))


def _definitions(tree: ast.Module):
    """Every name ``tree`` defines: functions and classes at any depth, and
    the names assigned at module level or in a class body (fields)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                yield from (t.id for t in targets if isinstance(t, ast.Name))


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


def uncalled(src: Path = SRC, shared: dict[str, str] = SHARED) -> set[str]:
    """module.name of every public name that no code outside its own
    definition uses, and of every public name defined more than once whose
    caller ``shared`` does not name, or names wrongly."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    everywhere = sum((_uses(tree) for tree in trees.values()), Counter())
    defined = Counter(name for tree in trees.values() for name in _definitions(tree))
    defs = {f"{module}.{qualname}": node
            for module, tree in trees.items() for qualname, node in _public_defs(tree)}
    out = set()
    for name, node in defs.items():
        if node.name.startswith("_"):
            continue
        if defined[node.name] > 1:
            caller = defs.get(shared.get(name, ""))
            if caller is None or not _uses(caller)[node.name]:
                out.add(name)
        elif everywhere[node.name] == _uses(node)[node.name]:
            out.add(name)
    return out


def test_every_public_name_has_a_caller_or_a_stated_reason():
    stray = sorted(uncalled() - set(KEPT))
    assert not stray, f"public names only tests call; give them a caller, move or delete them: {stray}"


def test_every_kept_name_still_lacks_a_caller():
    stale = sorted(set(KEPT) - uncalled())
    assert not stale, f"kept names that now have a caller or are gone; drop them from KEPT: {stale}"


def test_every_shared_name_is_still_defined_twice():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    defined = Counter(name for tree in trees for name in _definitions(tree))
    once = sorted(name for name in SHARED if defined[name.rpartition(".")[2]] < 2)
    assert not once, f"shared names now defined once; drop them from SHARED: {once}"


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


def test_a_name_defined_twice_is_flagged_unless_its_caller_is_named(tmp_path):
    # Poly.degree is called; Fixed.degree and Spec.coeffs, a method masked by
    # a field, are not, yet bare-name counting sees a use of each
    (tmp_path / "a.py").write_text(
        'class Poly:\n    def degree(self):\n        return 1\n\n\n'
        'class Fixed:\n    def degree(self):\n        return 2\n\n\n'
        'class Spec:\n    def coeffs(self):\n        return ()\n'
    )
    (tmp_path / "b.py").write_text(
        'from .a import Fixed, Poly, Spec\n\n\n'
        'class Series:\n    coeffs: tuple = ()\n\n\n'
        'def _read():\n    return Poly().degree(), Series().coeffs, Fixed, Spec\n'
    )
    flagged = {"a.Poly.degree", "a.Fixed.degree", "a.Spec.coeffs"}
    assert uncalled(tmp_path, shared={}) == flagged
    assert uncalled(tmp_path, shared={"a.Poly.degree": "b._read"}) == flagged - {"a.Poly.degree"}
    # a named caller that does not use the name clears nothing
    assert uncalled(tmp_path, shared={"a.Fixed.degree": "a.Poly.degree"}) == flagged
