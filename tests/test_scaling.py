"""Smoke test of tools/scaling.py: small sizes of each family."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from miniwhy import vcgen

ROOT = Path(__file__).resolve().parent.parent


def test_scaling_prints_one_row_per_family_and_size():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scaling.py"), "--sizes", "1-3"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[1:]]
    assert [(r[0], int(r[1])) for r in rows] == [
        (f, n) for f in ("nested", "branches", "straight") for n in (1, 2, 3)]
    # obligations and distinct goal objects: 4d + 1 distinct of d nested variants
    assert [(int(r[2]), int(r[3])) for r in rows[:3]] == [(5, 5), (11, 9), (20, 13)]
    assert all(int(r[4]) > 0 and float(r[5]) >= 0 and float(r[6]) >= 0 for r in rows)


def _scaling():
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "tools" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    return scaling


def test_a_size_past_the_vcgen_budget_gives_the_error_text(monkeypatch):
    scaling = _scaling()
    monkeypatch.setattr(vcgen, "VCGEN_BUDGET", 10)
    row = scaling.measure("nested", 2)
    assert "exceed the vcgen budget of 10 substituted nodes" in row["error"]
    assert scaling.format_row(row).endswith(row["error"])


def test_straight_line_code_is_charged_the_nodes_it_creates():
    """400 sequential `y = y + 1;` stay inside the vcgen budget, which
    charges each substitution the nodes it creates, not every node it
    visits, and their one obligation is closed by simplification."""
    row = _scaling().measure("straight", 400)
    assert "error" not in row, row["error"]
    assert row["verdicts"] == {"proved-internal": 1}
