"""Smoke test of tools/corpus_digest.py: this checkout against itself, and
against a copy whose s-expression exporter spells `equal` another way."""

import shutil
import subprocess
import sys
from pathlib import Path

from miniwhy import corpus
from miniwhy.export import export_sexp
from miniwhy.vcgen import generate_obligations

ROOT = Path(__file__).resolve().parent.parent


def _digest(against):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "corpus_digest.py"),
         "--against", str(against)],
        capture_output=True, text=True, timeout=120)
    rows = {}
    for line in run.stdout.splitlines():
        words = line.split()
        if len(words) >= 3 and not line.startswith("differing"):
            rows[words[0]] = words[1:]
    return run, rows


def test_corpus_digest_marks_the_units_whose_exports_differ(tmp_path):
    run, rows = _digest(ROOT)
    assert run.returncode == 0, run.stderr
    names = [e.name for e in corpus.corpus_sources()]
    assert sorted(rows) == sorted(names + ["total"])
    assert all(len(row) == 2 and row[0] == row[1] for row in rows.values())
    assert "differing units: []" in run.stdout

    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    export = other / "src" / "miniwhy" / "export.py"
    text = export.read_text()
    assert "equal" in text
    export.write_text(text.replace("equal", "same"))
    run, rows = _digest(other)
    assert run.returncode == 1, run.stderr
    uses_equal = {name for name in names
                  if any("(equal " in export_sexp(ob).text
                         for ob in generate_obligations(corpus.unit(name)))}
    assert uses_equal
    assert {u for u, row in rows.items() if row[-1] == "DIFF"} == uses_equal
    assert rows["total"][0] != rows["total"][1]
    assert f"differing units: {sorted(uses_equal)}" in run.stdout
