"""Trace validation evaluates a group's tests bundle by bundle, through one
prefix trie of antecedent closures per state layout: within one
instantiate_on_trace call, a shared antecedent is evaluated once per state
bundle (through the bundle's table when it sits on more than one edge),
and the verdicts are those of tests compiled and evaluated alone."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import helpers
from helpers import reference_rows, report_rows, typed_formula
from miniwhy import interp, vcgen
from miniwhy import syntax as S
from miniwhy.interp import ExecutionOutcome, TraceSnapshot, exec_method
from miniwhy.vcgen import (Obligation, ObligationSet, Origin,
                           generate_obligations, instantiate_on_trace)

QS = "find_nth_lowest_number"


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
def test_the_tries_give_the_verdicts_of_tests_compiled_alone(
        seed, quickselect_unit, sqrt_unit, stddev_unit):
    sets = {}
    for unit, method, args in _seeded_runs(seed, quickselect_unit, sqrt_unit,
                                           stddev_unit):
        out = exec_method(unit, method, args, "rational", trace=True)
        assert out.status == "normal", (method, args, out.error)
        # one set per unit, kept across its runs, as a caller keeps it
        obset = sets.setdefault(id(unit), generate_obligations(unit))
        report = instantiate_on_trace(obset, out)
        assert report_rows(report) == reference_rows(obset, out), (method, args)
        assert report.passed


# runs of a method m that record states over x (int) and a (int[]), and
# over any other name a state holds
def _set_and_outcome(obligations, *states):
    trace = []
    for state in states:
        trace += [TraceSnapshot("entry", "m", state=state),
                  TraceSnapshot("exit", "m", state=dict(state))]
    out = ExecutionOutcome(status="normal", method="m", mode="rational",
                           trace=trace, unit_digest="d")
    return ObligationSet(unit="u", unit_digest="d", obligations=obligations), out


def _ob(tag, hypotheses, goal="x >= 0"):
    return Obligation(id=f"m:{tag}:assert", name=tag, origin=Origin("m", 1, "assert"),
                      hypotheses=list(hypotheses),
                      hyp_sources=["requires"] * len(hypotheses),
                      goal=_formula(goal) if isinstance(goal, str) else goal)


def _formula(text):
    return typed_formula(text, {"x": S.INT, "a": S.ARRAY_INT})


# the Permut range 0..5 is invalid for an array of length 1
BAD = "Permut{Pre,Here}(a, 0, 5)"
BAD_DETAIL = "Permut range [0..5] invalid for array of length 1"


def _hand_built(case):
    """(obligations, states of m's runs, the (verdict, detail up to ` at
    line`) each obligation must get) of one hand-built case."""
    h = {t: _formula(t) for t in ("x >= 0", "x > 5", "x < 9", BAD)}
    runs = [{"x": x, "a": [4]} for x in (1, 7, 3)]
    if case == "prefix chain":
        # the first chain is a prefix of the second; the second test
        # fails at x = 7, the first at x = 3
        obs = [_ob("000", [h["x >= 0"]], "x != 3"),
               _ob("001", [h["x >= 0"], h["x < 9"]], "x == 1")]
        return obs, runs, [("fail", "falsified by recorded state")] * 2
    if case == "no antecedent":
        obs = [_ob("000", [], "x < 5"), _ob("001", [h["x >= 0"]], "x > 0")]
        return obs, runs, [("fail", "falsified by recorded state"),
                           ("pass", "3 instantiation(s)")]
    if case == "false antecedent before a fault":
        # x > 5 holds only at x = 7, where the Permut after it faults
        obs = [_ob("000", [h["x >= 0"], h["x > 5"], h[BAD]]),
               _ob("001", [h["x >= 0"], h["x > 5"]], "x == 7")]
        return obs, runs, [("not-instantiable", BAD_DETAIL),
                           ("pass", "3 instantiation(s)")]
    if case == "faulting consequent":
        obs = [_ob("000", [h["x >= 0"]], h[BAD]), _ob("001", [h["x >= 0"]])]
        return obs, runs, [("not-instantiable", BAD_DETAIL),
                           ("pass", "3 instantiation(s)")]
    if case == "compile error":
        absent = typed_formula("absent > 0", {"absent": S.INT})
        obs = [_ob("000", [h["x >= 0"]], absent), _ob("001", [h["x >= 0"]])]
        return obs, runs, [("not-instantiable", "unbound variable 'absent'"),
                           ("pass", "3 instantiation(s)")]
    if case == "two layouts":
        # the second run records a name the others lack: one group, two
        # layouts, and the test that fails does so in the second layout
        runs[1] = {**runs[1], "y": 0}
        obs = [_ob("000", [h["x >= 0"]], "x < 7"), _ob("001", [h["x >= 0"]])]
        return obs, runs, [("fail", "falsified by recorded state"),
                           ("pass", "3 instantiation(s)")]
    assert case == "one name at two types"
    # x is read as a real by one test and as an int by the other, so the
    # two bind the state apart: x = 1/2 is no int
    runs = [{"x": Fraction(1, 2), "a": [4]}]
    real = typed_formula("x * 2 == 1", {"x": S.REAL})
    obs = [_ob("000", [], real), _ob("001", [h["x >= 0"]])]
    return obs, runs, [("pass", "1 instantiation(s)"),
                       ("not-instantiable", "expected an int argument, got Fraction(1, 2)")]


@pytest.mark.parametrize("case", ["prefix chain", "no antecedent",
                                  "false antecedent before a fault",
                                  "faulting consequent", "compile error",
                                  "two layouts", "one name at two types"])
def test_hand_built_groups_give_the_verdicts_of_tests_compiled_alone(case):
    obligations, runs, want = _hand_built(case)
    obset, out = _set_and_outcome(obligations, *runs)
    rows = report_rows(instantiate_on_trace(obset, out))
    assert rows == reference_rows(obset, out)
    assert [(verdict, detail.split(" at line")[0])
            for _, verdict, detail, _ in rows] == want
    # the set keeps the group's tests: a second call reports the same
    assert report_rows(instantiate_on_trace(obset, out)) == rows


@pytest.fixture
def permut_calls(monkeypatch):
    """Counts the calls of interp._permut made while a state bundle is
    evaluated through vcgen's `eval_formula` or the reference's
    `helpers.reference_eval`, each keyed by the bundle and the Permut node
    evaluated (noted by a wrapper around each Permut closure compiled
    while the fixture lives)."""
    calls = Counter()
    bundle, node = [None], [None]
    pinned = []                 # every bundle seen, so that no id is reused
    real_compile, real_permut = interp._compile, interp._permut

    def noting(evaluate):
        def noted(f, states, *args, **kwargs):
            bundle[0] = states
            pinned.append(states)
            try:
                return evaluate(f, states, *args, **kwargs)
            finally:
                bundle[0] = None
        return noted

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
    monkeypatch.setattr(vcgen, "eval_formula", noting(vcgen.eval_formula))
    monkeypatch.setattr(helpers, "reference_eval", noting(helpers.reference_eval))
    monkeypatch.setattr(interp, "_compile", compile_noting_permut)
    monkeypatch.setattr(interp, "_permut", permut)
    return calls


def test_a_faulting_antecedent_is_evaluated_once_and_ends_every_test_under_it(
        permut_calls):
    bad = _formula(BAD)
    obligations = [_ob(f"{k:03}", [bad], goal) for k, goal in
                   enumerate(["x >= 0", "x < 9", "x == 1"])]
    report = instantiate_on_trace(*_set_and_outcome(obligations, {"x": 1, "a": [4]}))
    assert [(r.verdict, r.detail.split(" at line")[0]) for r in report.results] == [
        ("not-instantiable", BAD_DETAIL)] * 3
    # one walk of the group's trie on the one bundle, where each test
    # compiled alone evaluates the Permut once
    assert sum(permut_calls.values()) == 1


@pytest.mark.parametrize("first", ["short", "long"])
def test_a_false_antecedent_ends_the_test_before_the_later_ones(first, permut_calls):
    # x > 5 is false on the one bundle: the long test never reaches the
    # faulting Permut after it, so both pass
    true, false = _formula("x >= 0"), _formula("x > 5")
    bad = _formula(BAD)
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
        quickselect_unit, permut_calls):
    obset = _true_consequents(generate_obligations(quickselect_unit, QS))
    out = exec_method(quickselect_unit, QS, [[4, -2, 4, 0, 7, 1], 6, 2], "rational",
                      trace=True)
    rows = report_rows(instantiate_on_trace(obset, out))
    assert permut_calls and max(permut_calls.values()) == 1
    once = sum(permut_calls.values())

    # each test compiled and evaluated alone reaches the hypotheses the
    # tests share once per test
    permut_calls.clear()
    assert reference_rows(obset, out) == rows
    assert sum(permut_calls.values()) >= 4 * once
