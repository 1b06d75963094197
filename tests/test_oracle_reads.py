"""Every coefficient reader sizes its own oracle; the CLI picks no order.

Two guards on the source of ``src/khinfam``:

- Outside ``family.py`` and ``catalog.py``, which build and serve the
  oracles, no module reads an attribute ``coeffs`` or ``oracle``: a reader
  asks ``Family.coeffs_through(n)`` for the window it needs. An AST cannot
  tell a ``Family`` from a ``CoeffSeries``, so the guard is stricter than
  the rule and bans ``.coeffs`` on either; ``series.py``, which defines
  ``CoeffSeries.coeffs`` and never sees a ``Family``, is exempt.
- ``cli.py`` hands ``make_family`` one order, ``trunc=args.trunc``, the cap:
  no ``min``/``max`` over a truncation, no second build of one spec in a
  verb, and no ``exact_coeffs`` of its own, which no cap would bind.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "khinfam"
OWNERS = {"family.py", "catalog.py", "series.py"}


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def oracle_reads() -> list[str]:
    """file:line of every read of ``.coeffs`` or ``.oracle`` outside the owners."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in OWNERS:
            continue
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "oracle"):
                out.append(f"{path.name}:{node.lineno} .{node.attr}")
    return out


def _is_make_family(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Attribute) and f.attr == "make_family") or (
        isinstance(f, ast.Name) and f.id == "make_family")


def cli_order_picks(tree: ast.Module) -> list[str]:
    """Every place ``cli.py`` picks an oracle order itself."""
    out = []
    for node in ast.walk(tree):
        if _is_make_family(node):
            orders = [ast.unparse(kw.value) for kw in node.keywords if kw.arg == "trunc"]
            if len(node.args) != 1 or orders != ["args.trunc"]:
                out.append(f"line {node.lineno}: {ast.unparse(node)}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("min", "max") and "trunc" in ast.unparse(node).lower()):
            out.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.Attribute) and node.attr == "exact_coeffs":
            out.append(f"line {node.lineno}: {ast.unparse(node)}")
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            specs = [ast.unparse(n.args[0]) for n in ast.walk(fn) if _is_make_family(n) and n.args]
            out += [f"{fn.name} builds {s} twice" for s in sorted(set(specs)) if specs.count(s) > 1]
    return out


def test_no_module_reads_a_family_oracle_directly():
    assert oracle_reads() == []


def test_cli_passes_make_family_only_its_cap():
    tree = _tree("cli.py")
    assert any(_is_make_family(n) for n in ast.walk(tree))
    assert cli_order_picks(tree) == []


@pytest.mark.parametrize("body", [
    "fam = C.make_family(spec, trunc=min(args.trunc, 512))",  # a per-verb clamp
    "trunc = max(args.trunc, need)",  # an order raised for one statistic
    "fam = C.make_family(spec, trunc=args.trunc)\n    fam = C.make_family(spec, trunc=args.trunc)",
    "a_n = C.exact_coeffs(spec, n).coeff(n)",  # an uncapped build
], ids=["clamp", "raise", "rebuild", "uncapped"])
def test_the_cli_guard_sees_what_it_forbids(body):
    assert cli_order_picks(ast.parse(f"def cmd(args, stream):\n    {body}\n")) != []
