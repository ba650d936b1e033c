"""Self-tests of the benchmark harness; they need no build.

    python3 perfbench/tests/test_harness.py
"""

import copy
import json
import math
import os
import struct
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import check, gen, stats  # noqa: E402
from harness.spans import Recorder, union_length  # noqa: E402


def flip_last_bit(x):
    (n,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", n ^ 1))[0]


class Generation(unittest.TestCase):
    def test_fixed_seed_fixed_queries(self):
        self.assertEqual(
            [q.line for q in gen.hot_queries(7)], [q.line for q in gen.hot_queries(7)]
        )
        self.assertEqual(
            [q.line for q in gen.cold_queries(7, 300)],
            [q.line for q in gen.cold_queries(7, 300)],
        )

    def test_seeds_differ(self):
        self.assertNotEqual(
            [q.line for q in gen.hot_queries(1)], [q.line for q in gen.hot_queries(2)]
        )
        self.assertNotEqual(
            [q.line for q in gen.cold_queries(1, 50)], [q.line for q in gen.cold_queries(2, 50)]
        )

    def test_hot_working_set(self):
        qs = gen.hot_queries(3)
        self.assertEqual(len({q.line for q in qs}), 48)
        self.assertLess(len(qs), 128, "working set must fit the daemon's cache")
        self.assertEqual(len({(q.benchmark, q.lam) for q in qs}), 24)
        # Every circuit owns the same ranks whatever the seed.
        for seed in (1, 2):
            ranks = [q.benchmark for q in gen.hot_queries(seed)]
            self.assertEqual(ranks[:6], list(gen.HOT_CIRCUITS))

    def test_hot_shares(self):
        shares = gen.hot_shares()
        self.assertAlmostEqual(sum(shares.values()), 1.0)
        # Rank 0 belongs to the first circuit, so it gets the largest share.
        self.assertEqual(max(shares, key=shares.get), gen.HOT_CIRCUITS[0])
        self.assertAlmostEqual(shares["MS2"], 0.313, places=3)

    def test_cold_stream(self):
        qs = gen.cold_queries(5, 1000)
        self.assertEqual(len({q.line for q in qs}), 1000)
        for i, q in enumerate(qs):
            self.assertEqual(q.expect_budget, i % 10 == 9)
            if q.benchmark == "MS4" and not q.expect_budget:
                self.assertLessEqual(q.lam, 8.0)
        # The circuit and M stratum of a position do not depend on the seed.
        strata = lambda seed: [
            (q.benchmark, next(m for m, (lo, hi) in gen.M_LAMBDA.items() if lo <= q.lam <= hi))
            for q in gen.cold_queries(seed, 200)
            if not q.expect_budget
        ]
        self.assertEqual(strata(1), strata(2))

    def test_cold_pool_misses_the_cache(self):
        from harness import workloads

        qs = gen.cold_queries(5, workloads.COLD_POOL)
        self.assertEqual(len({q.line for q in qs}), workloads.COLD_POOL)
        # A key comes back after COLD_POOL - 1 other insertions, which
        # evict it from the daemon's 128-entry LRU cache.
        self.assertGreater(workloads.COLD_POOL - 1, 128)
        # The warm-up covers every circuit and M stratum of the pool.
        stratum = lambda q: next(m for m, (lo, hi) in gen.M_LAMBDA.items() if lo <= q.lam <= hi)
        regular = [q for q in qs if not q.expect_budget]
        self.assertEqual(
            {(q.benchmark, stratum(q)) for q in regular},
            {(q.benchmark, stratum(q)) for q in qs[: workloads.COLD_WARMUP] if not q.expect_budget},
        )

    def test_lambda_strata_disjoint(self):
        bounds = [gen.M_LAMBDA[m] for m in sorted(gen.M_LAMBDA)]
        for (lo1, hi1), (lo2, _) in zip(bounds, bounds[1:]):
            self.assertLess(lo1, hi1)
            self.assertLess(hi1, lo2)

    def test_zipf_skew(self):
        pick = gen.ZipfPicker(48, 11)
        counts = [0] * 48
        for _ in range(20000):
            counts[pick()] += 1
        self.assertGreater(counts[0], counts[1])
        self.assertGreater(counts[1], counts[10])
        self.assertGreater(counts[47], 0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([5.0], 90), 5.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_rank_is_exact(self):
        # 0.9 * 100 is 90.00000000000001 in floating point; the rank is not.
        self.assertEqual(stats.rank(100, 90), 90)
        self.assertEqual(stats.rank(1000, 99), 990)

    def test_ten_beyond_rule(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertTrue(stats.tail_reportable(100, 90))
        self.assertFalse(stats.tail_reportable(99, 90))
        self.assertFalse(stats.tail_reportable(999, 99))
        self.assertTrue(stats.tail_reportable(1000, 99))
        self.assertFalse(stats.tail_reportable(4, 50))

    def test_failures_are_slowest(self):
        self.assertEqual(stats.percentile([1.0, 2.0, math.inf], 90), math.inf)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.rank(10, 0.5)


EVAL_REF = {
    "ok": True,
    "yields": ["0x1.f3830099f4cd2p-1", "0x1.f3f44ba813887p-1"],
    "m": 6,
    "romdd_size": 103228,
}


def eval_reply(ref):
    lo, hi = check.ref_yields(ref)
    report = {"yield_lower": lo, "yield_upper": hi, "m": ref["m"], "romdd_size": ref["romdd_size"]}
    # Through JSON, as the daemon's replies arrive.
    return json.loads(json.dumps({"status": "ok", "result": {"report": report}}))


class Checker(unittest.TestCase):
    def test_accepts_exact_reply(self):
        q = gen.Query("eval", "MS6", 10.0)
        self.assertIsNone(check.check_reply(q, eval_reply(EVAL_REF), EVAL_REF))

    def test_rejects_one_flipped_bit(self):
        q = gen.Query("eval", "MS6", 10.0)
        reply = eval_reply(EVAL_REF)
        y = reply["result"]["report"]["yield_lower"]
        reply["result"]["report"]["yield_lower"] = flip_last_bit(y)
        self.assertNotEqual(y, reply["result"]["report"]["yield_lower"])
        self.assertIsNotNone(check.check_reply(q, reply, EVAL_REF))

    def test_rejects_flipped_conditional_yield(self):
        q = gen.Query("conditional-yields", "MS2", 3.0)
        ref = {"ok": True, "yields": ["0x1p+0", "0x1.c731fcf86d10cp-1"], "m": 1}
        ys = check.ref_yields(ref)
        ok = {"status": "ok", "result": {"m": 1, "conditional_yields": ys}}
        self.assertIsNone(check.check_reply(q, ok, ref))
        bad = copy.deepcopy(ok)
        bad["result"]["conditional_yields"][1] = flip_last_bit(ys[1])
        self.assertIsNotNone(check.check_reply(q, bad, ref))

    def test_rejects_missing_and_error_replies(self):
        q = gen.Query("eval", "MS6", 10.0)
        self.assertIsNotNone(check.check_reply(q, None, EVAL_REF))
        err = {"status": "error", "error": {"code": "internal", "message": "boom"}}
        self.assertIsNotNone(check.check_reply(q, err, EVAL_REF))

    def test_budget_replies(self):
        q = gen.Query("eval", "MS4", 20.0, node_limit=20000)
        details = {"kind": "node-budget", "stage": check.BUILD_STAGE}
        ref = {"ok": False, "code": "budget-exhausted", "details": details}
        reply = {"status": "error", "error": {"code": "budget-exhausted", "details": dict(details)}}
        self.assertIsNone(check.check_reply(q, reply, ref))
        # A success where the budget should have tripped is wrong, and so is
        # a reference run that did not trip it.
        self.assertIsNotNone(check.check_reply(q, eval_reply(EVAL_REF), ref))
        self.assertIsNotNone(check.check_reply(q, reply, EVAL_REF))
        late = {"kind": "node-budget", "stage": "romdd-convert"}
        ref_late = {"ok": False, "code": "budget-exhausted", "details": late}
        reply_late = {"status": "error", "error": {"code": "budget-exhausted", "details": late}}
        self.assertIsNotNone(check.check_reply(q, reply_late, ref_late))

    def test_row_check(self):
        row = {"yields": EVAL_REF["yields"], "m": 6, "paper_romdd_size": 103228}
        self.assertIsNone(check.check_row(EVAL_REF, row))
        wrong_size = dict(EVAL_REF, romdd_size=103229)
        self.assertIsNotNone(check.check_row(wrong_size, row))
        flipped = dict(EVAL_REF, yields=[flip_last_bit(float.fromhex(EVAL_REF["yields"][0])).hex(),
                                         EVAL_REF["yields"][1]])
        self.assertIsNotNone(check.check_row(flipped, row))

    def test_reference_file_matches_paper(self):
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "reference.json")
        with open(path) as f:
            rows = {r["name"]: r for r in json.load(f)["rows"]}
        self.assertEqual(rows["ms6"]["paper_romdd_size"], 103228)
        self.assertEqual(rows["esen8x1"]["paper_romdd_size"], 134512)


class Spans(unittest.TestCase):
    def test_self_time(self):
        rec = Recorder()
        top = rec.add("top", 0.0, 10.0)
        rec.add("a", 1.0, 3.0, top)
        rec.add("b", 2.0, 5.0, top)
        self.assertAlmostEqual(rec.self_times()["top"], 6.0)
        self.assertAlmostEqual(rec.self_times()["b"], 3.0)

    def test_import_probe(self):
        rec = Recorder()
        top = rec.add("probe.layers", 100.0, 110.0)
        rec.import_probe(
            [
                {"id": 1, "parent": 0, "name": "encode", "start_s": 1.0, "end_s": 2.0},
                {"id": 0, "parent": None, "name": "instance", "start_s": 0.5, "end_s": 9.0},
            ],
            top,
        )
        by_name = {s["name"]: s for s in rec.spans}
        self.assertEqual(by_name["instance"]["parent"], top)
        self.assertEqual(by_name["encode"]["parent"], by_name["instance"]["id"])
        self.assertAlmostEqual(by_name["encode"]["start"], 101.0)

    def test_union_length(self):
        self.assertAlmostEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(union_length([]), 0.0)


if __name__ == "__main__":
    unittest.main()
