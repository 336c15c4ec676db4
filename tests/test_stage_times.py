"""Smoke test of tools/stage_times.py: one rep, one pass, against itself."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("parse+typecheck", "vcgen", "prover", "prover.simplify", "prover.fm",
          "export", "validate", "validate.smtlib2", "validate.sexp", "validate.xml")
FORMAT_STAGES = STAGES[-3:]
TRACE_STAGES = ("exec+trace", "trace-first", "trace-later")
UNITS = ("calculate_std_dev", "lemmas", "quickselect", "sqrt_newton", "translate")
TRACED = ("quickselect", "sqrt_newton")


def test_stage_times_runs_one_rep_against_a_second_checkout(tmp_path):
    out = tmp_path / "stages.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--reps", "1",
         "--passes", "1", "--against", str(ROOT), "--json", str(out)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    blank = lines.index("")
    rows = [line.split() for line in lines[1:blank]]
    assert [(r[0], r[1]) for r in rows] == [
        (s, u) for s in STAGES for u in UNITS + ("corpus",)] + [
        (s, u) for s in TRACE_STAGES for u in TRACED + ("corpus",)]
    # per side: ms, IQR, full collections, collector ms; then the ratio
    assert all(len(r) == 11 for r in rows)
    # a unit with no document (of a format) validates in no time, and that
    # ratio is undefined
    assert all(re.fullmatch(r"\d+\.\d{3}~?", r[-1])
               or (r[0].startswith("validate") and r[-1] == "nan"
                   and r[2] == r[6] == "0.00")
               for r in rows)
    # then eval_formula calls and instantiations per pass, per side: the
    # same for a checkout against itself, and never more calls than
    # instantiations
    counts = [line.split() for line in lines[blank + 2:]]
    assert [(r[0], r[1]) for r in counts] == [
        (s, u) for s in TRACE_STAGES[1:] for u in TRACED]
    assert all(len(r) == 6 and r[2:4] == r[4:6] for r in counts)
    assert all(0 < int(r[2]) <= int(r[3]) for r in counts)
    data = json.loads(out.read_text())
    assert set(data["reps"]) == {"this", "against"}
    for side in data["reps"].values():
        (rep,) = side
        assert set(rep["raw"]) == set(UNITS)
        assert {u: set(c) for u, c in rep["counts"].items()} == {
            u: set(TRACE_STAGES[1:]) for u in TRACED}
        # the collector's work is counted for every stage the pass timed
        for u in UNITS:
            assert set(rep["gc_full"][u]) == set(rep["gc_s"][u]) == set(rep["raw"][u])
            assert all(n >= 0 and n == int(n) for n in rep["gc_full"][u].values())
            assert all(0 <= rep["gc_s"][u][s] <= rep["raw"][u][s]
                       for s in rep["raw"][u])
        assert all(rep["raw"][u]["vcgen"] > 0 for u in UNITS)
        # simplify and elimination are timed as parts of the prover
        assert all(0 < rep["raw"][u][s] < rep["raw"][u]["prover"]
                   for u in UNITS for s in ("prover.simplify", "prover.fm"))
        # the formats' validations tile validate
        assert all(rep["raw"][u][s] >= 0 for u in UNITS for s in FORMAT_STAGES)
        assert all(sum(rep["raw"][u][s] for s in FORMAT_STAGES)
                   == pytest.approx(rep["raw"][u]["validate"], abs=1e-9) for u in UNITS)
        assert all(rep["raw"][u][s] > 0 for u in TRACED for s in TRACE_STAGES)
        assert all(set(rep["raw"][u]) == set(STAGES) for u in UNITS if u not in TRACED)


def test_a_ratio_is_unresolved_when_the_iqrs_overlap():
    spec = importlib.util.spec_from_file_location(
        "stage_times", ROOT / "tools" / "stage_times.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # (median, q1, q3, full collections, collector ms)
    parent = (10.0, 9.5, 10.5, 0, 0.1)
    assert tool._ratio((10.8, 10.4, 11.2, 0, 0.1), parent) == "1.080~"
    assert tool._ratio((10.8, 10.6, 11.2, 0, 0.1), parent) == "1.080"
    assert tool._ratio((9.0, 8.8, 9.5, 0, 0.1), parent) == "0.900~"
    assert tool._ratio((9.0, 8.8, 9.4, 0, 0.1), parent) == "0.900"
    assert tool._ratio((1.0, 1.0, 1.0, 0, 0.0), (0.0, 0.0, 0.0, 0, 0.0)) == "nan"
