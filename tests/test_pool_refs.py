"""Every benchmark pool query reproduces its reference, in tier-1.

Replays the exact, saddle and cli pools of ``perfbench/`` once each, in
process, through perfbench's own set-up (``pools.build_inputs``) and judge
(``run.one_query``, which clears the caches before each cli query and calls
``run.judge``): exact results by digest, saddle floats within ``REL_TOL``,
cli commands by exit code, stdout bytes and error name. A failure names
each query that moved, with what it produced beside its reference. Nothing
under ``perfbench/`` is written.
"""

import difflib

import pytest

import khinfam
import khinfam.cli  # noqa: F401  (the cli pool's entry point)


def describe(record, ref) -> str:
    """A query that is not ok: what it produced beside its reference."""
    got, head = record.got, f"{record.status}: {record.q.qid}"
    if "stdout" not in got or "stdout" not in ref:
        return f"{head}\n  produced:  {got}\n  reference: {ref}"
    diff = difflib.unified_diff(ref["stdout"].splitlines(), got["stdout"].splitlines(),
                                "reference", "produced", lineterm="")
    return "\n".join([f"{head}\n  exit {got['exit']} (reference {ref['exit']}), "
                      f"error {got['error']} (reference {ref['error']})", *diff])


@pytest.mark.parametrize("workload", ["exact", "saddle", "cli"])
def test_every_pool_query_matches_its_reference(perfbench_run, workload):
    pool = perfbench_run.pools.POOLS[workload]()
    refs = perfbench_run.load_refs(workload, pool)
    assert refs is not None, f"perfbench/refs/{workload}.json misses pool entries"
    inputs = perfbench_run.pools.build_inputs(khinfam, workload, pool)
    records = [perfbench_run.one_query(khinfam, workload, inputs, q, refs) for q in pool]
    assert len({r.q.qid for r in records}) == {"exact": 143, "saddle": 214, "cli": 107}[workload]
    moved = "\n\n".join(describe(r, refs[r.q.qid]) for r in records if r.status != "ok")
    if moved:
        pytest.fail(f"{workload} queries that moved from their reference:\n\n{moved}", pytrace=False)
