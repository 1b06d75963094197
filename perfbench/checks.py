"""The benchmark's own tests: ``python3 perfbench/checks.py``.

They cover how outcomes are judged and counted, the p90 rule, the seeded
stream and the tracing wrappers. They are kept out of the package's pytest
suite on purpose.
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pools  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

K = run.import_khinfam()


def saddle_inputs():
    pool = [q for q in pools.saddle_pool() if q.qid in ("hayman|exp|100", "boundary|geom|100|100|0.0")]
    return pool, pools.build_inputs(K, "saddle", pool)


class Judging(unittest.TestCase):
    def test_wrong_reference_counts_as_failed(self):
        pool, inp = saddle_inputs()
        q = pool[0]
        good = run.one_query(K, "saddle", inp, q, {q.qid: run.load_refs("saddle", pool)[q.qid]})
        self.assertEqual(good.status, "ok")
        bad_ref = {"value": {"method": "hayman", "value": {"log_abs": 1.0, "sign": 1}}}
        rec = run.one_query(K, "saddle", inp, q, {q.qid: bad_ref})
        self.assertEqual(rec.status, "wrong")
        metrics = run.end_to_end([good, rec] * 60, [0.1])
        self.assertAlmostEqual(metrics["success_frac"], 0.5)

    def test_unexpected_exception_counts_as_failed(self):
        pool, inp = saddle_inputs()
        q = pool[0]
        inp.families["exp"] = dataclasses.replace(inp.families["exp"], mean=lambda t: 1 / 0)
        rec = run.one_query(K, "saddle", inp, q, run.load_refs("saddle", pool))
        self.assertEqual(rec.status, "wrong")
        self.assertEqual(rec.got, {"raised": "ZeroDivisionError"})

    def test_expected_named_error_is_a_success(self):
        pool, inp = saddle_inputs()
        q = pool[1]
        self.assertEqual(run.one_query(K, "saddle", inp, q, {q.qid: {"error": "RegimeMismatch"}}).status,
                         "ok")
        self.assertEqual(run.one_query(K, "saddle", inp, q, {q.qid: {"error": "NotUSG"}}).status,
                         "wrong")

    def test_cli_defect_fails_until_it_names_an_error(self):
        ref = {"contract": "exit 2 or 3 with a named error"}
        crash = run.judge(K, "cli", {"raised": "ZeroDivisionError"}, ZeroDivisionError(), ref)
        nan = run.judge(K, "cli", {"exit": 0, "stdout": "mean  nan\n", "error": None}, None, ref)
        fixed = run.judge(K, "cli", {"exit": 3, "stdout": "", "error": "RadiusOutOfRange"}, None, ref)
        self.assertEqual((crash, nan, fixed), ("failed", "failed", "ok"))

    def test_cli_success_printing_nan_is_wrong(self):
        got = {"exit": 0, "stdout": "mean  nan\n", "error": None}
        self.assertEqual(run.judge(K, "cli", got, None, dict(got)), "wrong")


class Percentiles(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile([float(x) for x in range(99)], 0.9))
        self.assertEqual(run.tail_percentile([float(x) for x in range(100)], 0.9), 89.0)
        self.assertEqual(run.tail_percentile([float(x) for x in range(200)], 0.9), 179.0)


class Streams(unittest.TestCase):
    def test_seed_fixes_the_stream(self):
        pool = pools.exact_pool()

        def first(seed, n=3):
            gen = pools.passes(pool, seed)
            return [[q.qid for q in next(gen)] for _ in range(n)]

        self.assertEqual(first(1), first(1))
        self.assertNotEqual(first(1), first(2))
        self.assertEqual(sorted(first(1)[0]), sorted(q.qid for q in pool))


class Tracing(unittest.TestCase):
    def test_broken_layer_split_makes_the_trace_not_correct(self):
        pool, inp = saddle_inputs()
        refs = run.load_refs("saddle", pool)
        first_pass = [run.one_query(K, "saddle", inp, q, refs) for q in pool]
        for holds in (True, False):
            _, m, checks = run.traced_run(K, "saddle", inp, first_pass, refs, {"split_holds": holds})
            self.assertEqual(m["series.calls"], 0)
            self.assertEqual(all(checks.values()), holds, checks)
        m = {"catalog.eval.calls": 5, "trace.spans": 100}
        self.assertEqual(run.layer_split("exact", m, {"split_holds": True}),
                         {"catalog_eval_calls_near_zero": False, "class_split": True})
        self.assertEqual(run.layer_split("saddle", {"series.calls": 1}, {}),
                         {"series_calls_zero": False, "class_split": False})

    def test_wrappers_record_and_restore(self):
        mods = pools.khinfam_modules(K)
        before = {(m.__name__, n): v for m in mods for n, v in vars(m).items()}
        fam = K.catalog.make_family(K.catalog.parse_family("exp"), trunc=8)
        plain = K.asym.hayman_estimate(fam, 50)
        tracer = Tracer(K, mods)
        tracer.install()
        try:
            self.assertIsNot(K.series.mul, before[("khinfam.series", "mul")])
            self.assertIs(K.make_family, K.catalog.make_family)
            traced_fam = K.catalog.make_family(K.catalog.parse_family("exp"), trunc=8)
            traced = K.asym.hayman_estimate(traced_fam, 50)
        finally:
            self.assertTrue(tracer.uninstall())
        after = {(m.__name__, n): v for m in mods for n, v in vars(m).items()}
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        self.assertEqual(traced, plain)
        names = {tracer.names[i] for i in tracer.sp_name}
        self.assertIn("asym.saddle_solve", names)
        self.assertIn("catalog.eval.mean", names)
        m = tracer.layer_metrics(0.0, 0)
        self.assertGreater(m["asym.mean_evals_per_solve"], 0)
        self.assertEqual(m["catalog.exact_coeffs.calls"], 1)
        selfs = tracer.self_times()
        self.assertTrue(all(s >= -1e-9 for s in selfs))

    def test_errors_counted_where_they_leave_a_layer(self):
        tracer = Tracer(K, pools.khinfam_modules(K))
        tracer.install()
        try:
            with self.assertRaises(K.errors.InvalidSpec):
                K.catalog.parse_family("nope")
            with self.assertRaises(OverflowError):  # float() of a 400-digit coefficient
                K.catalog.make_family(K.catalog.parse_family("poly:1e400,1"))
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.errors["catalog.errors.domain"], 1)
        self.assertEqual(tracer.errors["family.errors.unexpected"], 1)
        self.assertEqual(tracer.errors["catalog.errors.unexpected"], 1)


if __name__ == "__main__":
    unittest.main()
