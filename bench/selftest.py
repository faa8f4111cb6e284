"""Self-test of the benchmark's own logic (not of vitlab).

    python3 bench/selftest.py

Covers the span arithmetic on a synthetic tree, the tail-percentile
rule, that the reference covers every job seed a run can reach, the
truth check of job seeds outside the reference, that a wrong output is counted as a failed job, that the tracer
catches names imported with `from ... import`, and that the metric
names here match BENCHMARK.json.
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402


def _dump(names, rows):
    return {"job_id": 0, "names": names, "spans": [list(r) for r in rows], "counter_errors": 0}


class SpanArithmetic(unittest.TestCase):
    NAMES = ["cli.main", "cli.cmd_spectrum", "spatial.corrected_spectrum",
             "spatial.composite_susceptibility", "core.susceptibility",
             "oracle.steady_state_amplitudes"]
    #        name start end  parent error counts
    ROWS = [(0, 0.0, 10.0, -1, 0, None),
            (1, 1.0, 9.0, 0, 0, None),
            (2, 2.0, 8.0, 1, 0, {"spatial.members": 4, "spatial.member_points": 40}),
            (3, 2.5, 4.0, 2, 0, None),
            (4, 3.0, 3.5, 3, 0, {"core.chi.points": 10}),
            (5, 5.0, 6.0, 2, 0, None),
            (2, 8.5, 8.7, 1, 0, {"spatial.members": 1, "spatial.member_points": 10})]

    def test_union_length_merges_and_clips(self):
        intervals = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]
        self.assertAlmostEqual(spans.union_length(intervals, 0.0, 10.0), 5.0)
        self.assertAlmostEqual(spans.union_length(intervals, 2.5, 7.5), 3.0)
        self.assertEqual(spans.union_length([], 0.0, 1.0), 0.0)

    def test_self_time_subtracts_calls_into_other_modules(self):
        m = spans.job_metrics([_dump(self.NAMES, self.ROWS)])
        # main's own module (cli) is followed down; the two spectrum calls are its children
        self.assertAlmostEqual(m["cli.self_s"], 10.0 - 6.0 - 0.2)
        self.assertEqual(m["spatial.spectrum.calls"], 2)
        self.assertAlmostEqual(m["spatial.spectrum.s"], 6.2)
        # composite_susceptibility is spatial too, so only chi (0.5) and the solve (1.0) count
        self.assertAlmostEqual(m["spatial.spectrum.self_s"], 6.0 - 0.5 - 1.0 + 0.2)
        self.assertAlmostEqual(m["core.chi.s"], 0.5)
        self.assertAlmostEqual(m["oracle.solve.s"], 1.0)
        self.assertEqual(m["core.chi.points"], 10)
        self.assertEqual(m["spatial.member_points"], 50)
        self.assertEqual(m["fitting.fits"], 0)
        self.assertEqual(m["fitting.converged_ratio"], 0.0)

    def test_nested_calls_of_one_family_count_time_once(self):
        names = ["fitting.fit_vit_spectra", "spatial.corrected_spectrum"]
        rows = [(0, 0.0, 4.0, -1, 0, {"fitting.iterations": 3, "fitting.converged": 1}),
                (1, 1.0, 3.0, 0, 0, None),
                (1, 1.5, 2.0, 1, 0, None)]
        m = spans.job_metrics([_dump(names, rows)])
        self.assertEqual(m["spatial.spectrum.calls"], 2)
        self.assertAlmostEqual(m["spatial.spectrum.s"], 2.0)
        self.assertAlmostEqual(m["fitting.fit.self_s"], 2.0)
        self.assertEqual(m["fitting.model_evals"], 2)
        self.assertEqual(m["fitting.iterations"], 3)
        self.assertEqual(m["fitting.converged_ratio"], 1.0)

    def test_errors_count_once_where_they_leave_a_module(self):
        names = ["cli.main", "spatial.corrected_spectrum", "spatial.composite_susceptibility",
                 "core.susceptibility"]
        rows = [(0, 0.0, 4.0, -1, 1, None),
                (1, 1.0, 3.0, 0, 1, None),
                (2, 1.5, 2.5, 1, 1, None),
                (3, 2.0, 2.2, 2, 1, None)]
        m = spans.job_metrics([_dump(names, rows)])
        self.assertEqual((m["cli.errors"], m["spatial.errors"], m["core.errors"]), (1, 1, 1))

    def test_processes_of_one_job_add_up(self):
        one = spans.job_metrics([_dump(self.NAMES, self.ROWS)])
        two = spans.job_metrics([_dump(self.NAMES, self.ROWS)] * 2)
        self.assertAlmostEqual(two["spatial.spectrum.self_s"], 2 * one["spatial.spectrum.self_s"])
        self.assertEqual(two["core.chi.points"], 20)


class TailRule(unittest.TestCase):
    def test_rank_leaves_ten_samples_beyond(self):
        values = [float(v) for v in range(25, 0, -1)]
        self.assertEqual(bench.tail(values), (15.0, 60.0, 10))
        self.assertEqual(bench.tail([float(v) for v in range(1, 12)]), (1.0, 100.0 / 11, 10))

    def test_short_runs_fall_back_to_the_slowest_sample(self):
        self.assertEqual(bench.tail([3.0, 1.0, 2.0, 5.0, 4.0]), (5.0, 100.0, 0))
        self.assertEqual(bench.tail([float(v) for v in range(1, 11)]), (10.0, 100.0, 0))


class ReferenceCoverage(unittest.TestCase):
    def test_every_reachable_job_seed_has_an_entry(self):
        ref = checks.load_reference()
        for workload in bench.POOL_JOBS:
            pool = bench.job_pool(workload)
            self.assertEqual(set(ref[workload]["seeds"]), {str(s) for s in pool})
            for seed in (0, 7, 490767436):
                seeds = [bench.job_seed(workload, seed, i) for i in range(1000)]
                self.assertLessEqual(set(seeds), set(pool))
                self.assertEqual(len(set(seeds[:len(pool)])), len(pool))

    def test_the_seed_fixes_the_inputs(self):
        first = [bench.job_seed("roundtrip", 3, i) for i in range(50)]
        self.assertEqual(first, [bench.job_seed("roundtrip", 3, i) for i in range(50)])
        self.assertNotEqual(first, [bench.job_seed("roundtrip", 4, i) for i in range(50)])
        self.assertIsNone(bench.job_seed("spectra", 3, 0))


class WrongOutputFails(unittest.TestCase):
    def _pulses_job(self, folder, delays):
        out = os.path.join(folder, "out")
        os.makedirs(out)
        with open(os.path.join(out, "fig3_delays.json"), "w") as fh:
            json.dump(delays, fh)
        for name in checks.TRACE_FILES:
            with open(os.path.join(out, name), "w") as fh:
                fh.write("time_us,re,im\n0.0,1.0,0.0\n")
        return checks.check("pulses", checks.observe("pulses", folder, []), None,
                            checks.load_reference())

    def test_perturbed_delay_is_a_failed_job(self):
        good = checks.load_reference()["pulses"]["shared"]["delays"]
        bad = json.loads(json.dumps(good))
        bad["with_jitter"]["delay_centroid_ns"] *= 1 + 1e-6
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.assertEqual(self._pulses_job(a, good), [])
            problems = self._pulses_job(b, bad)
        self.assertEqual(len(problems), 1)
        self.assertIn("with_jitter.delay_centroid_ns", problems[0])

        job = {"traced": False, "job_s": 1.0, "peak_mem_mb": 30.0,
               "processes": [{"setup_s": 0.2}]}
        records = [dict(job, problems=[]), dict(job, problems=problems)]
        metrics, _ = bench.summarize(records, trace=False)
        self.assertEqual(metrics["ok_frac"][0], 0.5)
        metrics, _ = bench.summarize(records[1:], trace=False)
        self.assertEqual(metrics["ok_frac"][0], 0.0)


class TruthCheck(unittest.TestCase):
    def _roundtrip(self, eta_value, eta_error):
        ref = checks.load_reference()
        shared = ref["roundtrip"]["shared"]
        rows = shared["rows"]
        expected = [0.0] * rows
        expected[::checks.EXPECTED_STRIDE] = shared["expected_d1"]
        expected2 = [0.0] * rows
        expected2[::checks.EXPECTED_STRIDE] = shared["expected_d2"]
        params = {p: {"value": 1.0, "error": 0.1} for p in checks.FIT_PARAMS}
        params["eta_eff"] = {"value": eta_value, "error": eta_error}
        obs = {"counts": [(1, 1)] * rows, "expected_d1": expected, "expected_d2": expected2,
               "fit": {"converged": True, "params": params}}
        return obs, ref

    def test_a_job_seed_without_an_entry_is_checked_against_the_truth(self):
        truth = checks.load_reference()["roundtrip"]["shared"]["eta_truth"]
        obs, ref = self._roundtrip(truth - 0.04, 0.01)
        [offset] = checks.truth_offsets("roundtrip", obs, ref)
        self.assertAlmostEqual(offset, -4.0)
        self.assertEqual(checks.check("roundtrip", obs, 1, ref), [])
        obs, ref = self._roundtrip(truth - 0.06, 0.01)
        problems = checks.check("roundtrip", obs, 1, ref)
        self.assertEqual(len(problems), 1)
        self.assertIn("sigma from the truth", problems[0])

    def test_a_pooled_job_seed_is_checked_against_its_entry(self):
        truth = checks.load_reference()["roundtrip"]["shared"]["eta_truth"]
        obs, ref = self._roundtrip(truth, 0.01)
        problems = checks.check("roundtrip", obs, 0, ref)
        self.assertIn("run.csv: counts differ from reference", problems)


class Tracer(unittest.TestCase):
    def test_from_imports_are_traced_and_counted(self):
        if not os.path.isdir(bench.SRC):
            self.skipTest("no vitlab sources")
        sys.path.insert(0, bench.SRC)
        import vitlab.cli
        tracer = spans.Tracer(7)
        self.assertGreater(spans.install(tracer), 20)
        with tempfile.TemporaryDirectory() as folder:
            out = os.path.join(folder, "s.csv")
            self.assertEqual(vitlab.cli.main(["spectrum", "--points", "5", "--out", out]), 0)
        m = spans.job_metrics([tracer.dump()])
        self.assertEqual(m["cli.main.calls"], 1)
        self.assertEqual(m["spatial.spectrum.calls"], 1)
        self.assertEqual(m["spatial.member_points"], 5)
        self.assertEqual(m["core.chi.points"], 5)
        self.assertGreater(m["cli.self_s"], 0.0)
        self.assertEqual(tracer.counter_errors, 0)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_reports(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
            doc = json.load(fh)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(bench.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(bench.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         list(bench.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
