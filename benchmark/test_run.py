"""Self-tests of the benchmark (`run.py`).

Run from the root of the repository:

    python3 benchmark/test_run.py

The end-to-end cases build the program, then run short one-block
benchmark runs of the sweep workload (about a minute in all).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def bench(*args, references=None):
    """Run the benchmark; return its result line and the number of CLI ops it ran."""
    argv = [sys.executable, str(run.BENCH / "run.py"), "--seconds", "1", *args]
    if references:
        argv += ["--references", str(references)]
    out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"benchmark exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def take_blocks(workload, seed, n):
    gen = run.blocks(workload, seed)
    return [next(gen) for _ in range(n)]


def config_names(section):
    return sorted(m["name"] for m in json.loads(run.CONFIG.read_text())[section])


class OpSequence(unittest.TestCase):
    def test_same_seed_gives_the_same_ops(self):
        for workload in run.WORKLOADS:
            self.assertEqual(take_blocks(workload, 7, 5), take_blocks(workload, 7, 5), workload)

    def test_other_seed_gives_other_ops(self):
        for workload in run.WORKLOADS:
            self.assertNotEqual(take_blocks(workload, 7, 5), take_blocks(workload, 8, 5), workload)

    def test_every_block_holds_the_whole_pool(self):
        for workload, pool in run.POOLS.items():
            for block in take_blocks(workload, 3, 5):
                self.assertEqual(sorted(block), sorted(pool), workload)
        for stream in take_blocks("serve", 3, 2):
            self.assertEqual(len(stream), run.SERVE_ROUND)
            self.assertEqual(set(stream), set(run.SERVE_VARIANTS))

    def test_every_space_is_pinned(self):
        refs = json.loads(run.REFERENCES.read_text())
        for pool in run.POOLS.values():
            for op in pool:
                self.assertIn(run.ref_key(op), refs)
        for spec in run.SERVE_VARIANTS:
            self.assertIn(spec, refs)


class EndToEnd(unittest.TestCase):
    def test_wrong_reference_is_a_failed_op(self):
        refs = json.loads(run.REFERENCES.read_text())
        refs["dnn:32"] = dict(refs["dnn:32"], fingerprint="0123456789abcdef")
        wrong = run.target_dir() / "wrong-references.json"
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(json.dumps(refs))
        result = bench("--workload", "sweep", "--trace", "0", references=wrong)
        # Three set-up warm-ups and one op of the block sweep dgemm_nn on
        # reduced(32); the other three ops of the block still pass.
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 4)
        self.assertEqual(result["attempted"], 7)

    def test_metric_names_match_the_config(self):
        result = bench("--workload", "sweep", "--trace", "0")
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), config_names("end_to_end"))

    def test_traced_counts_repeat_exactly(self):
        first = bench("--workload", "sweep", "--trace", "1", "--seed", "5")
        second = bench("--workload", "sweep", "--trace", "1", "--seed", "5")
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(sorted(result["metrics"]), config_names("per_layer"))
        for name in ("compiled.evaluated", "compiled.points_skipped", "parallel.chunks"):
            value = first["metrics"][name]["value"]
            self.assertGreater(value, 0, name)
            self.assertEqual(value, second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
