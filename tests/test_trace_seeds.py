"""Smoke test of tools/trace_seeds.py: two short seeds against a copy of this
checkout whose workload hands out another round order at seed 2 only."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_seeds_compares_two_checkouts_seed_by_seed(tmp_path):
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workloads = other / "perfbench" / "workloads.py"
    text = workloads.read_text()
    anchor = "            self.pool.extend(batch)\n"
    assert text.count(anchor) == 1
    workloads.write_text(text.replace(
        anchor, anchor + "        if self.seed == 2:\n            self.pool.reverse()\n"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trace_seeds.py"), "--seeds", "1-2",
         "--seconds", "2", "--against", str(other)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    rows = {}
    for line in run.stdout.splitlines():
        if line.startswith("seed "):
            words = line.split()
            rows[int(words[1]), words[2]] = words
    assert sorted(rows) == [(s, side) for s in (1, 2) for side in ("against", "this")]
    for (seed, _), words in rows.items():
        assert words[3:5] == ["exit", "0"] and words[5:7] == ["failed", "0"]
        assert (words[-1] == "DIFF") == (seed == 2)
    # the same inputs give the same verdicts, another order another hash
    assert rows[1, "this"][8] == rows[1, "against"][8]
    assert rows[2, "this"][8] != rows[2, "against"][8]
    assert "differing seeds: [2]" in run.stdout
