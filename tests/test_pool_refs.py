"""Every benchmark pool query reproduces its reference, in tier-1.

Replays the exact, saddle and cli pools of ``perfbench/`` once each, in
process, through perfbench's own set-up (``pools.build_inputs``) and judge
(``run.one_query``, which clears the caches before each cli query and calls
``run.judge``): exact results by digest, saddle floats within ``REL_TOL``,
cli commands by exit code, stdout bytes and error name. Nothing under
``perfbench/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import khinfam
import khinfam.cli  # noqa: F401  (the cli pool's entry point)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
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


@pytest.mark.parametrize("workload", ["exact", "saddle", "cli"])
def test_every_pool_query_matches_its_reference(run, workload):
    pool = run.pools.POOLS[workload]()
    refs = run.load_refs(workload, pool)
    assert refs is not None, f"perfbench/refs/{workload}.json misses pool entries"
    inputs = run.pools.build_inputs(khinfam, workload, pool)
    statuses = {q.qid: run.one_query(khinfam, workload, inputs, q, refs).status for q in pool}
    assert len(statuses) == {"exact": 143, "saddle": 214, "cli": 107}[workload]
    assert {qid: s for qid, s in statuses.items() if s != "ok"} == {}
