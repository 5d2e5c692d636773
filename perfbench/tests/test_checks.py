"""Tests of run.py's output checks on the deterministic workloads.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def campaign(index, digest, prefix):
    return {"index": index, "id": "paper_seq_%d" % index, "state": "done",
            "coalesced": 0,
            "result": {"adrs": 0.05, "tool_runs": 3, "cache_hits": 0,
                       "cs_size": 3, "digest": digest,
                       "prefix_digest": prefix}}


def raw_run(seed=1):
    return {"workload": "paper_seq", "seed": seed, "trace": False,
            "run": {"campaigns": [campaign(0, "aa", "p0"),
                                  campaign(1, "bb", "p1")], "polls": []},
            "replay": {"index": 0, "steps": 10, "picks": 9, "digest": "p0"}}


class DigestChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.bdir = self.tmp.name
        self.exe = self.binary("one")

    def tearDown(self):
        self.tmp.cleanup()

    def binary(self, content):
        path = os.path.join(self.bdir, "exe-" + content)
        with open(path, "w") as f:
            f.write(content)
        return path

    def test_a_clean_run_passes_twice(self):
        self.assertEqual(run.check_outputs(raw_run(), self.bdir, self.exe), [])
        self.assertEqual(run.check_outputs(raw_run(), self.bdir, self.exe), [])

    def test_the_replay_is_checked_within_one_run(self):
        # A fresh build directory has no ledger: the replay still compares.
        raw = raw_run()
        raw["replay"]["digest"] = "other"
        problems = run.check_outputs(raw, self.bdir, self.exe)
        self.assertEqual(len(problems), 1)
        self.assertIn("replay", problems[0])

    def test_a_replay_without_proposals_fails(self):
        raw = raw_run()
        raw["replay"]["picks"] = 0
        self.assertEqual(len(run.check_outputs(raw, self.bdir, self.exe)), 1)

    def test_same_binary_same_seed_must_repeat(self):
        run.check_outputs(raw_run(), self.bdir, self.exe)
        raw = raw_run()
        raw["run"]["campaigns"][1]["result"]["digest"] = "changed"
        problems = run.check_outputs(raw, self.bdir, self.exe)
        self.assertEqual(len(problems), 1)
        self.assertIn("paper_seq/1/1", problems[0])

    def test_a_rebuilt_binary_starts_a_new_ledger(self):
        run.check_outputs(raw_run(), self.bdir, self.exe)
        raw = raw_run()
        raw["run"]["campaigns"][1]["result"]["digest"] = "changed"
        self.assertEqual(
            run.check_outputs(raw, self.bdir, self.binary("two")), [])


if __name__ == "__main__":
    unittest.main()
