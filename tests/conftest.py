"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def perfbench_run():
    """perfbench/run.py as a module (it imports ``pools`` from its folder)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module
