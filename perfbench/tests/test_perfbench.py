"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root.  They build the perfbench binary (as run.py does)
and run each workload briefly: about a minute and a half in all.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("fig10_campaign", "tape_lifecycle", "rt_copy")
SCRATCH = os.path.join(run.ROOT, run.OUT_DIR, "tests")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_benchmark()

    def test_every_metric_name_and_unit_parses(self):
        for kind in ("end_to_end", "per_layer"):
            for m in self.spec[kind]:
                self.assertRegex(m["name"], run.NAME_RE, kind)
                self.assertRegex(m["unit"], run.UNIT_RE, m["name"])

    def test_workloads_match_the_binary(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         WORKLOADS)

    def test_validator_rejects_doctored_specs(self):
        def broken(edit):
            spec = copy.deepcopy(self.spec)
            edit(spec)
            return spec

        cases = {
            "unit with a space": lambda s: s["per_layer"][0].update(unit="m s"),
            "name with a space": lambda s: s["per_layer"][0].update(name="a b"),
            "repeated name": lambda s: s["per_layer"].append(dict(s["per_layer"][0])),
            "bound above 0.25": lambda s: s["end_to_end"][0].update(bound=0.3),
            "no setup_s": lambda s: s.update(end_to_end=[
                m for m in s["end_to_end"] if m["name"] != "setup_s"]),
            "extra key": lambda s: s.update(extra=1),
            "one workload": lambda s: s.update(workloads=s["workloads"][:1]),
            "absolute path": lambda s: s.update(paths=["/perfbench"]),
        }
        for why, edit in cases.items():
            with self.subTest(why):
                with self.assertRaises(run.BenchError):
                    run.validate_benchmark(broken(edit))


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_benchmark()
        cls.binary = run.build_binary()
        os.makedirs(SCRATCH, exist_ok=True)

    def run_workload(self, workload, trace=0, doctor=None, seed=2009):
        cmd = [self.binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace), "--out-dir", SCRATCH]
        if doctor:
            cmd += ["--doctor", doctor]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=300)
        return proc.returncode, json.loads(proc.stdout.strip().split("\n")[-1])

    def test_doctored_outputs_trip_their_checks(self):
        cases = [
            ("fig10_campaign", "perturb_job_rate",
             {"fig10.rate_series_equals_reports",
              "fig10.matches_bench_fig10_datarate_per_job"}),
            ("tape_lifecycle", "drop_restored_file",
             {"tape.restores_completed_and_counted"}),
            ("rt_copy", "flip_byte", {"rt.pfcm_no_mismatch"}),
        ]
        for workload, doctor, checks in cases:
            with self.subTest(doctor):
                rc, rec = self.run_workload(workload, doctor=doctor)
                self.assertNotEqual(rc, 0)
                self.assertFalse(rec["correct"])
                failed = {c["name"] for c in rec["checks"] if not c["ok"]}
                self.assertTrue(checks <= failed, failed)
                result = run.contract_result(rec, self.spec, trace=False)
                self.assertFalse(result["correct"])

    def test_clean_runs_pass_and_report_every_metric(self):
        per_layer_seen = set()
        for workload in WORKLOADS:
            with self.subTest(workload):
                rc, rec = self.run_workload(workload)
                self.assertEqual(rc, 0, [c for c in rec["checks"] if not c["ok"]])
                result = run.contract_result(rec, self.spec, trace=False)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                rc, rec = self.run_workload(workload, trace=1)
                self.assertEqual(rc, 0, [c for c in rec["checks"] if not c["ok"]])
                per_layer_seen |= set(rec["metrics"])
        missing = {m["name"] for m in self.spec["per_layer"]} - per_layer_seen
        self.assertEqual(missing, set())

    def test_refuses_to_run_without_the_repository_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rt_copy",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
