"""Self-tests of the benchmark, on tiny sizes of every workload.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stream  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--seconds", "1",
         "--scale", "tiny", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False)


def result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


class TestResults(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            for name in workloads.NAMES:
                with self.subTest(workload=name, trace=trace):
                    res = result(name, trace)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: m["unit"] for k, m in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_counts_repeat_exactly(self):
        for name in ("census9", "census9-jobs2", "lemmas8", "graph-stream"):
            with self.subTest(workload=name):
                runs = [result(name, 1) for _ in range(2)]
                counts = [{k: m["value"] for k, m in r["metrics"].items()
                           if m["unit"] == "count"} for r in runs]
                self.assertEqual(counts[0], counts[1])
                if name != "graph-stream":
                    self.assertGreater(counts[0]["enumeration.parents"], 0)

    def test_census_counts_match_serial_tally(self):
        # n = 7: 143 parents on levels 1..6, 853 graphs reach the fast
        # test and 4 of them are critical.
        m = result("census9", 1)["metrics"]
        self.assertEqual(m["enumeration.parents"]["value"], 143)
        self.assertEqual(m["criticality.fast.calls"]["value"], 853)
        self.assertEqual(m["criticality.fast.hits"]["value"], 4)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "bench")
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = bench("--workload", "census9", "--seed", "1",
                         "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TestStream(unittest.TestCase):
    def test_one_seed_gives_identical_input(self):
        for tiny in (True, False):
            a = json.dumps(stream.make_items(7, tiny)).encode()
            b = json.dumps(stream.make_items(7, tiny)).encode()
            c = json.dumps(stream.make_items(8, tiny)).encode()
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def test_codec_round_trip(self):
        g = stream.gamma(5)
        self.assertEqual(stream.decode(stream.encode(g)), g)
        big = stream.cycle(70)
        self.assertEqual(stream.decode(stream.encode(big)), big)

    def test_wrong_outputs_are_failures(self):
        c6 = stream.encode(stream.cycle(6))
        check = {"argv": ["check", "--method", "both", "--graph", c6],
                 "expect": {"critical": True}}
        agree = '{"critical": true, "agree": true}\n'
        self.assertIsNone(stream.judge(check, 0, agree))
        self.assertIsNotNone(stream.judge(check, 1, agree))
        self.assertIsNotNone(
            stream.judge(check, 0, '{"critical": true, "agree": false}\n'))
        regular = {"argv": ["construct", "regular", "-n", "6"],
                   "expect": {"size": 6}}
        self.assertIsNone(stream.judge(regular, 0, c6 + "\n"))
        k6 = stream.encode(stream.from_edges(
            6, [(a, b) for b in range(6) for a in range(b)]))
        self.assertIsNotNone(stream.judge(regular, 0, k6 + "\n"))


if __name__ == "__main__":
    unittest.main()
