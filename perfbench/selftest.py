"""Self-tests of the benchmark's generator, checker, tail rule and layer
aggregation.  They run no CLI command and import nothing from causalatom.

    python3 perfbench/selftest.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _gamma_op(fmt="json"):
    return workloads.Op(0, "gamma", ("gamma", "--format", fmt), fmt, checker.hydrogen_atom())


def _gamma_results(atom):
    g5, gl = checker.gamma_exact(atom, 5), checker.gamma_leading(atom)
    return {"gamma_leading_per_s": gl, "gamma_exact_per_s": g5,
            "gamma_exact_power4_per_s": checker.gamma_exact(atom, 4),
            "ratio_exact_to_leading_minus_one": g5 / gl - 1.0,
            "delta_u": checker.delta_u(atom)}


def _envelope(command, atom, results):
    return json.dumps({"command": command, "inputs": {"atom": atom},
                       "results": results, "metadata": {}})


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_batch(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.make_batch(w, 7), workloads.make_batch(w, 7))

    def test_seeds_differ(self):
        for w in workloads.WORKLOADS:
            self.assertNotEqual(workloads.make_batch(w, 7).ops, workloads.make_batch(w, 8).ops)

    def test_split_sweep_classes(self):
        for seed in range(20):
            ops = workloads.make_batch("split-sweep", seed).ops
            classes = sorted(op.params["class"] for op in ops)
            self.assertEqual(classes, sorted(["pole-fold band"] + 2 * [
                "on-support u>1", "on-support u<-1", "off-support 0<u<1"]))
            for op in ops:
                if op.params["class"].startswith("on-support"):
                    self.assertLess(max(abs(op.params["u_min"]), abs(op.params["u_max"])),
                                    workloads.SPLIT_POLE_BAND["u_min"])

    def test_ww_sweep_half_to_file(self):
        ops = workloads.make_batch("ww-sweep", 3).ops
        self.assertEqual(2 * sum(op.out_file is not None for op in ops), len(ops))
        self.assertEqual(max(op.params["n_modes"] for op in ops), 32000)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.op = _gamma_op()
        self.results = _gamma_results(self.op.atom)

    def verdict(self, results, rc=0, stderr="", op=None):
        op = op or self.op
        return checker.check(op, rc, _envelope(op.command, op.atom, results), stderr)

    def test_exact_output_passes(self):
        v = self.verdict(self.results)
        self.assertEqual(v.status, "ok", v.reason)
        self.assertGreater(v.digits, 12)

    def test_wrong_value_flagged(self):
        self.results["gamma_exact_per_s"] *= 1.0 + 1e-6
        self.assertEqual(self.verdict(self.results).status, "wrong")

    def test_nan_string_flagged(self):
        self.results["delta_u"] = "nan"
        v = self.verdict(self.results)
        self.assertEqual(v.status, "failed")
        self.assertTrue(v.failed)

    def test_nan_literal_flagged(self):
        text = _envelope("gamma", self.op.atom, self.results).replace(
            str(self.results["delta_u"]), "NaN")
        self.assertEqual(checker.check(self.op, 0, text, "").status, "failed")

    def test_nan_csv_cell_flagged(self):
        op = _gamma_op("csv")
        text = ",".join(self.results) + "\n" + ",".join(
            '"""nan"""' if k == "delta_u" else repr(v) for k, v in self.results.items()) + "\n"
        self.assertEqual(checker.check(op, 0, text, "").status, "failed")

    def test_csv_output_passes(self):
        op = _gamma_op("csv")
        text = ",".join(self.results) + "\n" + ",".join(
            f"{v:.17g}" for v in self.results.values()) + "\n"
        self.assertEqual(checker.check(op, 0, text, "").status, "ok")

    def test_nonzero_exit_flagged(self):
        typed = json.dumps({"error": "PresetError", "message": "bad", "command": "gamma"})
        self.assertEqual(checker.check(self.op, 1, "", typed).status, "refused")
        self.assertEqual(checker.check(self.op, 1, "", "Traceback ...").status, "failed")
        self.assertEqual(checker.check(self.op, 2, "", "usage").status, "failed")
        self.assertEqual(checker.check(self.op, -9, "", "").status, "failed")

    def test_split_off_support_nan_flagged(self):
        op = workloads.Op(0, "split-check", ("split-check",), "json", checker.hydrogen_atom(),
                          {"u_min": 0.2, "u_max": 0.8, "points": 2})
        rows = [{"u": u, "re_closed": z.real, "im_closed": 0.0, "re_numeric": 1.0,
                 "im_numeric": 0.0, "im_rel_err": "nan"}
                for u in (0.2, 0.8) for z in [checker.retarded_closed(u, op.atom)]]
        v = self.verdict({"rows": rows, "max_im_rel_err": "nan"}, op=op)
        self.assertEqual(v.status, "failed")

    def test_split_wrong_imaginary_part_flagged(self):
        op = workloads.Op(0, "split-check", ("split-check",), "json", checker.hydrogen_atom(),
                          {"u_min": 1.5, "u_max": 3.0, "points": 2})
        rows = []
        for u in (1.5, 3.0):
            z = checker.retarded_closed(u, op.atom)
            rows.append({"u": u, "re_closed": z.real, "im_closed": z.imag,
                         "re_numeric": 0.0, "im_numeric": z.imag, "im_rel_err": 0.0})
        self.assertEqual(self.verdict({"rows": rows, "max_im_rel_err": 0.0}, op=op).status, "ok")
        rows[1]["im_numeric"] *= 1.001
        self.assertEqual(self.verdict({"rows": rows, "max_im_rel_err": 0.0}, op=op).status,
                         "wrong")

    def test_does_not_import_the_program(self):
        self.assertNotIn("causalatom", sys.modules)


class TailRuleTest(unittest.TestCase):
    def test_percentile_leaves_ten_beyond(self):
        self.assertEqual(run.tail_percentile(100), (90, 90))
        self.assertEqual(run.tail_percentile(20), (50, 10))
        self.assertEqual(run.tail_percentile(11), (9, 1))
        self.assertEqual(run.tail_percentile(56), (82, 46))

    def test_highest_such_percentile(self):
        for n in range(11, 300):
            p, rank = run.tail_percentile(n)
            self.assertGreaterEqual(n - rank, 10)
            if p < 99:
                self.assertLess(n - (-(-(p + 1) * n // 100)), 10)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail_percentile(10)

    def test_value(self):
        self.assertEqual(run.tail_value(range(100, 0, -1)), (90, 90, 100))


class LayersTest(unittest.TestCase):
    def test_importtime(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:       100 |     150000 | numpy\n"
                "import time:       300 |       2000 |   causalatom.errors\n"
                "import time:       500 |      20000 |   mpmath\n"
                "import time:       200 |     200000 | causalatom\n")
        t = layers.parse_importtime(text)
        self.assertAlmostEqual(t["numpy"], 0.15)
        self.assertAlmostEqual(t["mpmath"], 0.02)
        self.assertAlmostEqual(t["causalatom"], 0.0005)

    def test_self_time_and_attribution(self):
        spans = [["cli.main", 0.0, 10.0, -1, 0],
                 ["splitting.retarded_part_central", 1.0, 5.0, 0, 0],
                 ["numerics.integrate_adaptive", 2.0, 3.0, 1, 30],
                 ["numerics.integrate_adaptive", 6.0, 7.0, 0, 15]]
        op = {"spans": spans, "out_bytes": 9, "teardown": 0.1,
              "imports": {"numpy": 0.1, "mpmath": 0.0, "causalatom": 0.0},
              "counters": {"lu_distinct": 0, "ww_sample_bytes": 0}}
        m = layers.per_layer_metrics([(10.0, [op])], 8.0)
        value = {k: v["value"] for k, v in m.items()}
        self.assertEqual(value["cli.self_s"], 5.0)
        self.assertEqual(value["numerics.integrand_evals"], 45)
        self.assertEqual(value["numerics.integrate_self_s"], 2.0)
        self.assertEqual(value["splitting.evals_per_point"], 30)
        self.assertEqual(value["trace.overhead_ratio"], 1.25)
        self.assertEqual(set(m), {name for name, _ in layers.PER_LAYER})


if __name__ == "__main__":
    unittest.main()
