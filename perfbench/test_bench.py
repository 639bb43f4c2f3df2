"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

The edit test builds the CLI (dune) and compiles every edited revision.
"""

import json
import os
import random
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        random.Random(0).shuffle(values)
        self.assertEqual(bench.percentile(values, 0.5), 50)
        self.assertEqual(bench.percentile(values, 0.9), 90)

    def test_ten_beyond_rule(self):
        bench.percentile(list(range(100)), 0.9)  # 10 beyond: allowed
        with self.assertRaises(ValueError):
            bench.percentile(list(range(99)), 0.9)  # 9 beyond
        bench.percentile(list(range(20)), 0.5)
        with self.assertRaises(ValueError):
            bench.percentile(list(range(19)), 0.5)

    def test_measured_minimum_supports_p90(self):
        bench.percentile([0.0] * bench.MIN_MEASURED, 0.9)


class SpeedScale(unittest.TestCase):
    def test_scaled_cancels_a_uniform_slowdown(self):
        fast = bench.scaled(0.2, bench.REF_UNIT_S)
        slow = bench.scaled(0.3, 1.5 * bench.REF_UNIT_S)
        self.assertAlmostEqual(fast, 0.2)
        self.assertAlmostEqual(slow, fast)

    def test_local_unit_follows_a_shift_inside_a_run(self):
        # the host runs at 3 ms per unit for 10 s, then at 6 ms
        blocks = [(t * 0.5, 0.003 if t < 20 else 0.006) for t in range(40)]
        self.assertEqual(bench.local_unit(2.0, blocks), 0.003)
        self.assertEqual(bench.local_unit(18.0, blocks), 0.006)
        # a lone outlier block does not move the estimate
        blocks[4] = (2.0, 0.05)
        self.assertEqual(bench.local_unit(2.0, blocks), 0.003)
        with self.assertRaises(ValueError):
            bench.local_unit(0.0, [])


class Composition(unittest.TestCase):
    def test_multiset_fixed_across_seeds(self):
        for wl in bench.WORKLOADS:
            want = bench.round_multiset(wl)
            orders = set()
            for seed in range(1, 21):
                for r in range(3):
                    kinds = bench.round_kinds(wl, seed, r)
                    self.assertEqual(sorted(kinds), want, (wl, seed, r))
                    orders.add(tuple(kinds))
            self.assertGreater(len(orders), 1, wl)

    def test_family_percentiles_have_samples(self):
        # a family holding a fifth of every round has 20 of the (at least)
        # MIN_MEASURED requests: enough for its p50 to have 10 beyond it
        for wl in bench.WORKLOADS:
            kinds = bench.round_multiset(wl)
            for fam in bench.FAMILIES:
                share = sum(a == fam for _, a, _ in kinds) / len(kinds)
                self.assertGreaterEqual(share, 0.2, (wl, fam))

    def test_edit_chains_stay_contiguous(self):
        kinds = bench.round_kinds("edit-session", 7, 0)
        analyses = [a for _, a, _ in kinds]
        switches = sum(x != y for x, y in zip(analyses, analyses[1:]))
        self.assertEqual(switches, 1)
        self.assertEqual(kinds[0][2], "analyze")


class Checker(unittest.TestCase):
    def setUp(self):
        self.expected = run.load_expected()

    def reply(self, key):
        prog, a = key.split("/")
        metrics = dict(self.expected["analyze"][key])
        return (prog, a, "analyze"), {
            "ok": True, "result": {"analysis": a, "metrics": metrics}}

    def test_accepts_expected(self):
        for key in self.expected["analyze"]:
            kind, rep = self.reply(key)
            self.assertIsNone(bench.check_reply(kind, rep, self.expected))

    def test_rejects_tampered_metric(self):
        for key in self.expected["analyze"]:
            for metric in ("fail_cast", "reach_mtd", "poly_call", "call_edge"):
                kind, rep = self.reply(key)
                rep["result"]["metrics"][metric] += 1
                self.assertIsNotNone(
                    bench.check_reply(kind, rep, self.expected), (key, metric))

    def test_rejects_tampered_count_and_errors(self):
        key = next(iter(self.expected["check"]))
        prog, a = key.split("/")
        kind = (prog, a, "check")
        good = {"ok": True, "result": {"analysis": a,
                                       "count": self.expected["check"][key]}}
        self.assertIsNone(bench.check_reply(kind, good, self.expected))
        bad = json.loads(json.dumps(good))
        bad["result"]["count"] -= 1
        self.assertIsNotNone(bench.check_reply(kind, bad, self.expected))
        err = {"ok": False, "error": {"code": "timeout", "message": "x"}}
        self.assertIsNotNone(bench.check_reply(kind, err, self.expected))


class Accounting(unittest.TestCase):
    def test_self_times_add_up(self):
        spans = [
            {"idx": 0, "req": 0, "name": "request", "parent": -1, "dur": 1.0},
            {"idx": 1, "req": 0, "name": "driver.outcome", "parent": 0,
             "dur": 0.7},
            {"idx": 2, "req": 0, "name": "pta.solve", "parent": 1, "dur": 0.5},
            {"idx": 3, "req": 0, "name": "driver.render", "parent": 0,
             "dur": 0.2},
        ]
        selfs, roots = layers.self_times(spans)
        self.assertAlmostEqual(sum(selfs[0].values()), roots[0])
        self.assertAlmostEqual(selfs[0]["unattributed"], 0.1)
        self.assertAlmostEqual(selfs[0]["driver.outcome"], 0.2)
        reqs = [{"phase": "measured", "kind": ["p", "ci", "analyze"]}]
        table = layers.identity(reqs, selfs, roots)
        self.assertAlmostEqual(table["p/ci/analyze"]["latency_s"], 1.0)


class Edits(unittest.TestCase):
    def test_every_edit_compiles(self):
        os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        run.build_cli()
        os.makedirs(run.WORK, exist_ok=True)
        for prog in bench.programs("edit-session"):
            src = run.suite_source(prog)
            ops = bench.driver_ops(src)
            self.assertGreater(len(ops), 10)
            rng = random.Random(f"test/{prog}")
            path = os.path.join(run.WORK, "edit-test.mjava")
            for step in range(25):
                edit = bench.pick_edit(rng, ops)
                new = bench.apply_replace(src, edit["class"], edit["method"],
                                          edit["body"])
                self.assertNotEqual(new, src)
                src = new
                with open(path, "w") as f:
                    f.write(src)
                r = subprocess.run([run.EXE, "dump-ir", path],
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.PIPE, text=True)
                self.assertEqual(r.returncode, 0, (prog, step, edit, r.stderr))
            os.remove(path)


if __name__ == "__main__":
    unittest.main()
