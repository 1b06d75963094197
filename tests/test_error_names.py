"""Every error class is raised under its own name.

A caller matches a refusal by its name (the CLI echoes it verbatim), so each
``KhinfamError`` subclass in ``errors.py`` has a ``raise Name(...)`` site in
``src/khinfam``, the name bare or module-qualified (``raise
cat.NoApproxAvailable(...)``), and every class such a site raises is a
builtin exception or is defined in ``errors.py``. A class raised only
through a variable (``raise refuse(...)``) has no site: which refusal carries
its name is then decided by the callers, not where the fact is checked.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "khinfam"


def error_classes(src: Path = SRC) -> set[str]:
    """The classes ``errors.py`` derives from ``KhinfamError``, directly or not."""
    classes = {"KhinfamError"}
    for node in ast.parse((src / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in classes for b in node.bases):
            classes.add(node.name)
    return classes - {"KhinfamError"}


def raised(src: Path = SRC) -> set[str]:
    """The callee of every ``raise callee(...)`` in the package: a bare name,
    the last attribute of a qualified one, or the source text of any other."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                out.add(func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else ast.unparse(func))
    return out


def misnamed(src: Path = SRC) -> tuple[list[str], list[str]]:
    """(error classes with no raise site, raised names that are neither an
    error class nor a builtin exception)."""
    classes, names = error_classes(src), raised(src)
    builtin = {n for n in names if isinstance(getattr(builtins, n, None), type)
               and issubclass(getattr(builtins, n), BaseException)}
    return sorted(classes - names), sorted(names - classes - builtin - {"KhinfamError"})


def test_every_error_class_is_raised_by_its_name():
    unraised, _ = misnamed()
    assert not unraised, f"error classes no raise site names; raise them where the fact " \
                         f"is checked, or delete them: {unraised}"


def test_every_raised_name_is_an_error_class():
    _, stray = misnamed()
    assert not stray, f"raised names errors.py does not define: {stray}"


def test_the_guard_flags_a_planted_package(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class KhinfamError(Exception):\n    pass\n\n\n"
        "class Bare(KhinfamError):\n    pass\n\n\n"
        "class Qualified(KhinfamError):\n    pass\n\n\n"
        "class ThroughAVariable(KhinfamError):\n    pass\n\n\n"
        "class Derived(Bare):\n    pass\n\n\n"
        "class NotAnError:\n    pass\n"
    )
    (tmp_path / "a.py").write_text(
        "from . import errors\n"
        "from .errors import Bare, Derived, ThroughAVariable\n\n\n"
        "def check(x, refuse=ThroughAVariable):\n"
        "    if x == 0:\n        raise Bare('bare')\n"
        "    if x == 1:\n        raise errors.Qualified('qualified')\n"
        "    if x == 2:\n        raise refuse('through a variable')\n"
        "    if x == 3:\n        raise Missing('defined nowhere')\n"
        "    if x == 4:\n        raise ValueError('a builtin')\n"
        "    raise Derived  # a class, not a call: no site\n"
    )
    assert misnamed(tmp_path) == (["Derived", "ThroughAVariable"], ["Missing", "refuse"])
