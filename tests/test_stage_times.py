"""Smoke test of tools/stage_times.py: one rep, one pass, against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("parse+typecheck", "vcgen", "prover", "prover.simplify", "prover.fm",
          "export", "validate")
TRACE_STAGES = ("exec+trace", "trace-validate")
UNITS = ("calculate_std_dev", "lemmas", "quickselect", "sqrt_newton", "translate")
TRACED = ("quickselect", "sqrt_newton")


def test_stage_times_runs_one_rep_against_a_second_checkout(tmp_path):
    out = tmp_path / "stages.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--reps", "1",
         "--passes", "1", "--against", str(ROOT), "--json", str(out)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        (s, u) for s in STAGES for u in UNITS + ("corpus",)] + [
        (s, u) for s in TRACE_STAGES for u in TRACED + ("corpus",)]
    assert all(len(r) == 7 for r in rows)          # this, IQR, against, IQR, ratio
    data = json.loads(out.read_text())
    assert set(data["reps"]) == {"this", "against"}
    for side in data["reps"].values():
        (rep,) = side
        assert set(rep["raw"]) == set(UNITS)
        assert all(rep["raw"][u]["vcgen"] > 0 for u in UNITS)
        # simplify and elimination are timed as parts of the prover
        assert all(0 < rep["raw"][u][s] < rep["raw"][u]["prover"]
                   for u in UNITS for s in ("prover.simplify", "prover.fm"))
        assert all(rep["raw"][u][s] > 0 for u in TRACED for s in TRACE_STAGES)
        assert all(set(rep["raw"][u]) == set(STAGES) for u in UNITS if u not in TRACED)
