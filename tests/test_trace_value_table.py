"""The per-bundle value table of trace validation: within one
instantiate_on_trace call, an antecedent of a test's `==>` chain is
evaluated once per state bundle and read by every later test that reaches
it, and the verdicts are those of evaluations that each have a table of
their own."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import typed_formula
from miniwhy import interp, vcgen
from miniwhy import syntax as S
from miniwhy.errors import EvalError, ExecutionFault
from miniwhy.interp import (CompiledFormula, ExecutionOutcome, TraceSnapshot,
                            eval_formula, exec_method)
from miniwhy.vcgen import (Obligation, ObligationSet, Origin,
                           generate_obligations, instantiate_on_trace)

QS = "find_nth_lowest_number"


def _reference(obset, outcome):
    """(id, verdict, detail, witness) of every obligation, each test
    compiled alone and evaluated by eval_formula without a cache, so with a
    fresh value table per evaluation, on the bundles instantiate_on_trace
    derives."""
    index = vcgen._TraceIndex(outcome)
    return [_reference_one(ob, index, outcome.mode) for ob in obset]


def _reference_one(ob, index, mode):
    method = ob.origin.method
    if ob.kind == "lemma":
        return ob.id, "not-instantiable", "no program point", {}
    if method not in index.segments:
        return ob.id, "not-instantiable", f"method {method} not in trace", {}
    plan = vcgen._trace_plan(ob)
    for _, callee in plan.result_syms:
        if callee not in index.results:
            return ob.id, "not-instantiable", f"no recorded call of {callee}", {}
    compiled = {}
    evaluated = 0
    for states, key in index.bundles(method, plan):
        try:
            if key not in compiled:
                compiled[key] = CompiledFormula(vcgen.validation_formula(ob), states, mode)
            holds = eval_formula(compiled[key], states, mode)
        except (EvalError, ExecutionFault) as ex:
            return ob.id, "not-instantiable", str(ex), {}
        evaluated += 1
        if not holds:
            witness = {k: repr(v) for k, v in states["Here"].items()}
            return ob.id, "fail", "falsified by recorded state", witness
    if evaluated == 0:
        return ob.id, "not-instantiable", "no matching snapshots in trace", {}
    return ob.id, "pass", f"{evaluated} instantiation(s)", {}


def _rows(report):
    return [(r.id, r.verdict, r.detail, r.witness) for r in report.results]


def _seeded_runs(seed, quickselect_unit, sqrt_unit, stddev_unit):
    """(unit, method, args) of seeded runs of the three traced units."""
    rng = random.Random(seed)
    runs = []
    for _ in range(4):
        length = rng.randint(3, 7)
        buf = [rng.randint(-5, 5) for _ in range(length)]
        runs.append((quickselect_unit, QS, [buf, length, rng.randrange(length)]))
    runs.append((sqrt_unit, "sqrt", [Fraction(rng.randint(0, 40), rng.choice([1, 2, 4]))]))
    n = rng.randint(0, 5)
    total = rng.randint(-20, 20)
    sq = total * total if n == 1 else rng.randint(0, 200)
    runs.append((stddev_unit, "calculate_std_dev", [n, total, sq]))
    return runs


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_the_table_gives_the_verdicts_of_evaluation_without_one(
        seed, quickselect_unit, sqrt_unit, stddev_unit):
    sets = {}
    for unit, method, args in _seeded_runs(seed, quickselect_unit, sqrt_unit,
                                           stddev_unit):
        out = exec_method(unit, method, args, "rational", trace=True)
        assert out.status == "normal", (method, args, out.error)
        # one set per unit, kept across its runs, as a caller keeps it
        obset = sets.setdefault(id(unit), generate_obligations(unit))
        report = instantiate_on_trace(obset, out)
        assert _rows(report) == _reference(obset, out), (method, args)
        assert report.passed


# one run of a method m that records a state over x (int) and a (int[])
def _set_and_outcome(obligations, state):
    trace = [TraceSnapshot("entry", "m", state=state),
             TraceSnapshot("exit", "m", state=dict(state))]
    out = ExecutionOutcome(status="normal", method="m", mode="rational",
                           trace=trace, unit_digest="d")
    return ObligationSet(unit="u", unit_digest="d", obligations=obligations), out


def _ob(tag, hypotheses, goal="x >= 0"):
    return Obligation(id=f"m:{tag}:assert", name=tag, origin=Origin("m", 1, "assert"),
                      hypotheses=list(hypotheses),
                      hyp_sources=["requires"] * len(hypotheses),
                      goal=_formula(goal))


def _formula(text):
    return typed_formula(text, {"x": S.INT, "a": S.ARRAY_INT})


@pytest.fixture
def permut_calls(monkeypatch):
    """Counts the calls of interp._permut made by trace validation, each
    keyed by the bundle that the test being evaluated was handed and the
    Permut node evaluated (noted by a wrapper around each Permut closure
    compiled while the fixture lives)."""
    calls = Counter()
    bundle, node = [None], [None]
    real_eval, real_compile, real_permut = (vcgen.eval_formula, interp._compile,
                                            interp._permut)

    def evaluate(cf, states, mode, cache=None):
        bundle[0] = states
        try:
            return real_eval(cf, states, mode, cache=cache)
        finally:
            bundle[0] = None

    def compile_noting_permut(e, ctx, state):
        fn = real_compile(e, ctx, state)
        if not isinstance(e, S.PermutAtom):
            return fn

        def noted(f):
            node[0] = e
            return fn(f)
        return noted

    def permut(a1, a2, lo, hi, line=0):
        if bundle[0] is not None:       # not a runtime check
            calls[id(bundle[0]), id(node[0])] += 1
        return real_permut(a1, a2, lo, hi, line)
    monkeypatch.setattr(vcgen, "eval_formula", evaluate)
    monkeypatch.setattr(interp, "_compile", compile_noting_permut)
    monkeypatch.setattr(interp, "_permut", permut)
    return calls


def test_a_faulting_antecedent_is_evaluated_by_every_test_that_reaches_it(permut_calls):
    # the range 0..5 is invalid for an array of length 1: no value is stored
    bad = _formula("Permut{Pre,Here}(a, 0, 5)")
    obligations = [_ob(f"{k:03}", [bad], goal) for k, goal in
                   enumerate(["x >= 0", "x < 9", "x == 1"])]
    report = instantiate_on_trace(*_set_and_outcome(obligations, {"x": 1, "a": [4]}))
    detail = "Permut range [0..5] invalid for array of length 1"
    assert [(r.verdict, r.detail.split(" at line")[0]) for r in report.results] == [
        ("not-instantiable", detail)] * 3
    assert sum(permut_calls.values()) == 3


@pytest.mark.parametrize("first", ["short", "long"])
def test_a_false_antecedent_ends_the_test_before_the_later_ones(first, permut_calls):
    # x > 5 is false on the one bundle: whichever test stores it, the long
    # test never reaches the faulting Permut after it, so both pass
    true, false = _formula("x >= 0"), _formula("x > 5")
    bad = _formula("Permut{Pre,Here}(a, 0, 5)")
    short, long = _ob("000", [true, false]), _ob("001", [true, false, bad])
    obligations = [short, long] if first == "short" else [long, short]
    report = instantiate_on_trace(*_set_and_outcome(obligations, {"x": 1, "a": [4]}))
    assert [(r.verdict, r.detail) for r in report.results] == [
        ("pass", "1 instantiation(s)")] * 2
    assert not permut_calls


def _true_consequents(obset):
    """obset with the last consequent of every goal's `==>` spine made
    `true`: every Permut a test evaluates is then an antecedent of its
    chain, and the test reaches each of them unless one before is false."""
    true = S.BoolLit(value=True, ty=S.BOOL)

    def spine(e):
        if isinstance(e, S.Binary) and e.op == "==>":
            return replace(e, right=spine(e.right))
        return true
    return ObligationSet(unit=obset.unit, unit_digest=obset.unit_digest,
                         obligations=[replace(ob, goal=spine(ob.goal)) for ob in obset],
                         methods=obset.methods)


def test_a_call_evaluates_each_permut_hypothesis_once_per_bundle(
        quickselect_unit, permut_calls, monkeypatch):
    obset = _true_consequents(generate_obligations(quickselect_unit, QS))
    out = exec_method(quickselect_unit, QS, [[4, -2, 4, 0, 7, 1], 6, 2], "rational",
                      trace=True)
    tabled = instantiate_on_trace(obset, out)
    assert permut_calls and max(permut_calls.values()) == 1
    once = sum(permut_calls.values())

    # without the call's cache each evaluation has a fresh table, so no test
    # reads a value another stored
    permut_calls.clear()
    spied = vcgen.eval_formula
    monkeypatch.setattr(vcgen, "eval_formula",
                        lambda cf, states, mode, cache=None: spied(cf, states, mode))
    assert instantiate_on_trace(obset, out).results == tabled.results
    assert sum(permut_calls.values()) >= 4 * once
