"""Tests for the benchmark's own checks: every reference rejects a wrong
verdict, and the metric names printed are the ones BENCHMARK.json declares.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from miniwhy.interp import CheckEvent  # noqa: E402
from miniwhy.parser import parse  # noqa: E402
from miniwhy.prover import ProofStatus  # noqa: E402
from miniwhy.typecheck import typecheck  # noqa: E402
from miniwhy.vcgen import ObligationSet, generate_obligations  # noqa: E402


def setup(cls, seed=3):
    w = cls(ROOT, seed)
    w.setup()
    return w


def test_grid_reference_rejects_a_wrong_answer():
    w = setup(W.CheckGrid)
    item = ((3, 1, 2, 0), 4, 1)
    outcome = w.run(item)
    assert W.check_grid_answer(item, outcome) is None
    wrong = dataclasses.replace(outcome, return_value=outcome.return_value + 1)
    assert "expected 1" in W.check_grid_answer(item, wrong)


def test_newton_reference_rejects_a_flipped_verdict():
    w = setup(W.NewtonBinary64)
    verdicts = {c: W.newton_replay(c)[0] for c in w.pool[:500]}
    bad = next(c for c, v in verdicts.items() if v == "invariant-preserved")
    good = next(c for c, v in verdicts.items() if v == "normal")
    bad_out, good_out = w.run(bad), w.run(good)
    assert W.check_newton(bad, bad_out) is None
    assert W.check_newton(good, good_out) is None

    passed = dataclasses.replace(bad_out, status="normal", report=[],
                                 return_value=1.0)
    assert "verdict normal" in W.check_newton(bad, passed)
    failed = dataclasses.replace(good_out, status="contract-violation", report=[
        CheckEvent(kind="invariant-preserved", method="sqrt_newton", line=13,
                   verdict="fail")])
    assert "float replay says normal" in W.check_newton(good, failed)
    off = dataclasses.replace(good_out, return_value=good_out.return_value * 2)
    assert "replay" in W.check_newton(good, off)


def test_trace_reference_rejects_an_injected_false_obligation():
    w = setup(W.TraceValidate)
    item = ("sqrt", Fraction(2))
    assert w.check(item, w.run(item), W.Counter()) is None

    falsified = (ROOT / "src/miniwhy/corpus/sqrt_newton.mjml").read_text().replace(
        "t >= 0 && t * t > c", "t >= 0 && t * t < c", 1)
    bad_obs = generate_obligations(typecheck(parse(falsified, "sqrt_newton")),
                                   "sqrt_newton")
    bad_init = next(ob for ob in bad_obs if ob.kind == "invariant-init")
    good = w.obsets["sqrt"]
    w.obsets["sqrt"] = ObligationSet(
        unit=good.unit, unit_digest=good.unit_digest,
        obligations=good.obligations + [dataclasses.replace(bad_init, id="injected:bad")])
    assert "injected:bad" in w.check(item, w.run(item), W.Counter())


def test_trace_round_requires_every_obligation_to_pass():
    w = setup(W.TraceValidate)
    item = ("sqrt", Fraction(2))
    w.check(item, w.run(item), W.Counter())
    assert [r for r in w.end_round() if r.startswith("qs:")]


def test_prove_reference_rejects_a_refutation_and_a_changed_inventory():
    w = setup(W.ProveCorpus)
    result = w.run("lemmas")
    assert w.check("lemmas", result, W.Counter()) is None
    refuted = dataclasses.replace(result, statuses=[ProofStatus("refuted")] * 2)
    assert "refuted" in w.check("lemmas", refuted, W.Counter())
    w.golden["lemmas"] += "extra\n"
    assert "inventory" in w.check("lemmas", result, W.Counter())


def run_bench(cwd, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "newton_binary64",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def test_benchmark_json_names_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: cls.why for name, cls in W.WORKLOADS.items()}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
