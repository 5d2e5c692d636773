"""BENCHMARK.json agrees with what run.py prints.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_metric_lists_match_run_py(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_names_units_and_bounds(self):
        names = [m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in self.bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


if __name__ == "__main__":
    unittest.main()
