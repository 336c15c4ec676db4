import gc
import operator
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import reference_rows, report_rows, typed_formula
from miniwhy import corpus, interp, vcgen
from miniwhy import syntax as S
from miniwhy.errors import VcgenError
from miniwhy.interp import (BindCache, ExecutionOutcome, TraceSnapshot,
                            exec_method)
from miniwhy.parser import parse
from miniwhy.printer import expr_to_str
from miniwhy.typecheck import typecheck
from miniwhy.vcgen import (Obligation, ObligationSet, Origin,
                           generate_obligations, instantiate_on_trace)


def run_traced(tu, method, args, mode="rational"):
    out = exec_method(tu, method, args, mode, trace=True)
    assert out.status == "normal", out.error
    return out


def test_quickselect_run_validates_every_obligation(quickselect_unit):
    obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    out = run_traced(quickselect_unit, "find_nth_lowest_number", [[3, 1, 2], 3, 1])
    rep = instantiate_on_trace(obs, out)
    assert not rep.failed
    assert not rep.not_instantiable
    assert len(rep.passed) == len(obs)


def test_sqrt_run_validates(sqrt_unit):
    obs = generate_obligations(sqrt_unit)
    out = run_traced(sqrt_unit, "sqrt", [2])
    rep = instantiate_on_trace(obs, out)
    assert not rep.failed
    assert len(rep.passed) == len(obs)


def test_stddev_run_validates(stddev_unit):
    obs = generate_obligations(stddev_unit, "calculate_std_dev")
    out = run_traced(stddev_unit, "calculate_std_dev", [3, 6, 14])
    rep = instantiate_on_trace(obs, out)
    assert not rep.failed


def test_injected_false_goal_fails_with_witness(quickselect_unit):
    obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    bogus = Obligation(
        id="injected:false", name="injected false goal",
        origin=Origin(method="find_nth_lowest_number", line=1, kind="assert"),
        hypotheses=[], hyp_sources=[],
        goal=S.BoolLit(value=False, ty=S.BOOL))
    tampered = ObligationSet(
        unit=obs.unit, unit_digest=obs.unit_digest,
        obligations=list(obs.obligations) + [bogus], methods=obs.methods)
    out = run_traced(quickselect_unit, "find_nth_lowest_number", [[3, 1, 2], 3, 1])
    rep = instantiate_on_trace(tampered, out)
    bad = [r for r in rep.results if r.id == "injected:false"]
    assert bad and bad[0].verdict == "fail"
    assert bad[0].witness


def test_lemma_obligations_are_not_instantiable(lemmas_unit, sqrt_unit):
    # rehost the lemma obligations next to a method execution of another unit
    lemma_obs = generate_obligations(lemmas_unit)
    out = run_traced(sqrt_unit, "sqrt", [2])
    rehosted = ObligationSet(unit="sqrt_newton",
                             unit_digest=out.unit_digest,
                             obligations=list(lemma_obs.obligations))
    rep = instantiate_on_trace(rehosted, out)
    assert all(r.verdict == "not-instantiable" for r in rep.results)
    assert all("no program point" in r.detail for r in rep.results)


def test_unit_mismatch_is_an_error(quickselect_unit, sqrt_unit):
    obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    out = run_traced(sqrt_unit, "sqrt", [2])
    with pytest.raises(VcgenError) as exc:
        instantiate_on_trace(obs, out)
    assert "mismatch" in str(exc.value)


def test_abnormal_outcome_is_rejected(sqrt_unit):
    obs = generate_obligations(sqrt_unit)
    out = exec_method(sqrt_unit, "sqrt", [-1], "rational", trace=True)
    assert out.status != "normal"
    with pytest.raises(VcgenError):
        instantiate_on_trace(obs, out)


FALSIFIED = """
/*@ requires c >= 0 && epsi > 0;
  @ ensures \\result >= 0;
  @*/
real sqrt_newton(real c, real epsi) {
    real t;
    if (c > 1) {
        t = c;
    } else {
        t = 1.1;
    }
    /*@ loop_invariant t * t < c; @*/
    while (t * t - c >= epsi) {
        t = (c / t + t) / 2.0;
    }
    return t;
}
"""


def test_injected_false_invariant_caught_at_runtime_and_by_validation():
    # runtime: executing under the falsified unit violates the invariant
    bad_unit = typecheck(parse(FALSIFIED, "sqrt_newton"))
    out_bad = exec_method(bad_unit, "sqrt_newton", [2, 1e-3], "rational")
    assert out_bad.status == "contract-violation"
    assert "invariant" in out_bad.error

    # trace validation: the falsified invariant's own obligation, rehosted
    # into the healthy unit's set, is falsified by the healthy trace
    good_unit = corpus.unit("sqrt_newton")
    good_obs = generate_obligations(good_unit, "sqrt_newton")
    bad_obs = generate_obligations(bad_unit, "sqrt_newton")
    bad_init = next(ob for ob in bad_obs if ob.kind == "invariant-init")
    rehosted = ObligationSet(
        unit=good_obs.unit, unit_digest=good_obs.unit_digest,
        obligations=list(good_obs.obligations) + [replace(bad_init, id="injected:bad-inv")])
    out_good = run_traced(good_unit, "sqrt_newton", [2, Fraction(1, 1000)])
    rep = instantiate_on_trace(rehosted, out_good)
    verdicts = {r.id: r.verdict for r in rep.results}
    assert verdicts["injected:bad-inv"] == "fail"
    for ob in good_obs:
        assert verdicts[ob.id] == "pass"



def test_validation_against_random_quickselect_runs(quickselect_unit):
    import random
    obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    rng = random.Random(2024)
    covered = set()
    for _ in range(20):
        n_len = rng.randint(1, 8)
        buf = [rng.randint(-9, 9) for _ in range(n_len)]
        n = rng.randint(0, n_len - 1)
        out = run_traced(quickselect_unit, "find_nth_lowest_number",
                         [buf, n_len, n])
        rep = instantiate_on_trace(obs, out)
        assert not rep.failed, (buf, n, rep.failed[0].id)
        covered |= {r.id for r in rep.passed}
    # runs with repeated values drive multi-iteration inner loops, covering
    # the loop-step obligations as well
    out = run_traced(quickselect_unit, "find_nth_lowest_number",
                     [[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4], 16, 7])
    rep = instantiate_on_trace(obs, out)
    assert not rep.failed and not rep.not_instantiable
    covered |= {r.id for r in rep.passed}
    assert covered == {ob.id for ob in obs}


def test_kept_tests_follow_the_mode_and_the_trace(quickselect_unit, sqrt_unit):
    """One set validated on outcome after outcome (sqrt on rational and
    binary64 outcomes in turn, quickselect on traces of several lengths)
    reports on each what a freshly generated set reports."""
    qs = "find_nth_lowest_number"
    units = {"sqrt": sqrt_unit, qs: quickselect_unit}

    def generate(method):
        if method == "sqrt":
            return generate_obligations(sqrt_unit)
        return generate_obligations(quickselect_unit, method)

    kept = {method: generate(method) for method in units}
    runs = [("sqrt", [Fraction(9, 4)], "rational"), ("sqrt", [2.0], "binary64"),
            ("sqrt", [Fraction(2)], "rational"), ("sqrt", [9.0], "binary64"),
            ("sqrt", [0], "rational")]
    runs += [(qs, [buf, len(buf), n], "rational")
             for buf, n in (([3, 1, 2], 1), ([5, -1, 5, 0, 2], 2), ([7], 0),
                            ([2, 2, 2, 2], 3), ([4, 4, 1, -3, 7, 0], 3))]
    for method, args, mode in runs:
        out = run_traced(units[method], method, args, mode)
        fresh = instantiate_on_trace(generate(method), out)
        assert fresh.passed
        assert instantiate_on_trace(kept[method], out).results == fresh.results, args


def test_monotonicity_of_added_true_assert(sqrt_unit):
    base = corpus.source_text("sqrt_newton")
    with_assert = base.replace(
        "    return t;",
        "    /*@ assert t * t - c < epsi; @*/\n    return t;", 1)
    tu2 = typecheck(parse(with_assert, "sqrt_newton"))
    obs1 = generate_obligations(sqrt_unit, "sqrt_newton")
    obs2 = generate_obligations(tu2, "sqrt_newton")
    out1 = run_traced(sqrt_unit, "sqrt_newton", [2, Fraction(1, 10 ** 6)])
    out2 = run_traced(tu2, "sqrt_newton", [2, Fraction(1, 10 ** 6)])
    rep1 = instantiate_on_trace(obs1, out1)
    rep2 = instantiate_on_trace(obs2, out2)
    # the added assert evaluates true on the trace: every obligation kind that
    # existed before keeps its verdict (all pass), plus the new assert passes
    assert not rep1.failed and not rep2.failed
    kinds1 = sorted((o.kind, r.verdict) for o, r in zip(obs1, rep1.results))
    kinds2 = sorted((o.kind, r.verdict) for o, r in zip(obs2, rep2.results)
                    if o.kind != "assert")
    assert kinds1 == kinds2


NEW_ARRAY = """
/*@ requires n == 7; @*/
void m(int n) {
    n = 2;
    real[] a = new real[n];
    /*@ assert \\length(a) == 2; @*/
}
"""


def test_substitution_reaches_the_size_of_a_new_array():
    # the assignment n = 2 must reach the n in `new real[n]`; a goal that
    # kept the entry value 7 would be falsified by every run
    tu = typecheck(parse(NEW_ARRAY))
    obs = generate_obligations(tu, "m")
    (goal,) = [ob.goal for ob in obs if ob.kind == "assert"]
    assert expr_to_str(goal) == "\\length(new real[2]) == 2"
    rep = instantiate_on_trace(obs, run_traced(tu, "m", [7]))
    assert [r.verdict for r in rep.results if r.id.endswith(":assert")] == ["pass"]
    assert not rep.failed


SHORT_CIRCUIT = {
    # a[n] is read only when n < m, so its guard holds under n < m
    "and": ("/*@ requires n >= 0 && m <= \\length(a); ensures true; @*/\n"
            "void f(int[] a, int n, int m) {\n"
            "    if (n < m && a[n] > 0) { n = 0; }\n"
            "}",
            [[1], 5, 0],
            "n < m ==> n >= 0 && n < \\length(a)"),
    # a[n] is read only when n >= m fails
    "or": ("/*@ requires n >= 0 && m <= \\length(a); ensures true; @*/\n"
           "void f(int[] a, int n, int m) {\n"
           "    if (n >= m || a[n] > 0) { n = 0; }\n"
           "}",
           [[1], 5, 0],
           "!(n >= m) ==> n >= 0 && n < \\length(a)"),
    # a[k] in the antecedent is read only under the conjuncts before it
    "forall-antecedent": (
        "/*@ requires n <= \\length(a); ensures true; @*/\n"
        "void f(int[] a, int n) {\n"
        "    /*@ ghost bool g = true; @*/\n"
        "    /*@ set g = (\\forall integer k; 0 <= k && k < n && a[k] > 0 ==> a[k] < 9); @*/\n"
        "}",
        [[1, 2, 3], 3],
        "\\forall integer k; 0 <= k && k < n ==> k >= 0 && k < \\length(a)"),
}


@pytest.mark.parametrize("case", sorted(SHORT_CIRCUIT))
def test_guards_follow_the_short_circuit(case):
    src, args, want = SHORT_CIRCUIT[case]
    tu = typecheck(parse(src))
    obs = generate_obligations(tu, "f")
    guards = [ob for ob in obs if ob.kind == "bounds-guard"]
    assert want in [expr_to_str(ob.goal) for ob in guards]
    # the run reads no element out of range, so every guard holds on it
    rep = instantiate_on_trace(obs, run_traced(tu, "f", args))
    assert [(r.id, r.verdict) for r in rep.results
            if r.verdict != "pass"] == []


# tests of one state layout {x, y} that read different names: bound
# coerced, x reads False (0.1 is not a tenth as an exact rational) and
# uncoerced True; y holds a string in the second call of m, which only C
# reads once it gets there
READS = {"A": ("x * 10 != 1", {"x": S.REAL}), "B": ("y < 0", {"y": S.INT}),
         "C": ("y > 0", {"y": S.INT})}


def _two_calls_of_m(names):
    obs = [Obligation(id=f"m:{n}:assert", name=n, origin=Origin("m", 1, "assert"),
                      hypotheses=[], hyp_sources=[], goal=typed_formula(*READS[n]))
           for n in names]
    trace = []
    for y in (1, "junk"):
        state = {"x": 0.1, "y": y}
        trace += [TraceSnapshot("entry", "m", state=state),
                  TraceSnapshot("exit", "m", state=dict(state))]
    out = ExecutionOutcome(status="normal", method="m", mode="rational",
                           trace=trace, unit_digest="d")
    return ObligationSet(unit="u", unit_digest="d", obligations=obs), out


@pytest.mark.parametrize("names", [("A", "B", "C"), ("C", "B", "A")])
def test_tests_with_different_reads_bind_a_shared_state_apart(names):
    """Tests that read different names of one state each get the slots they
    read coerced and no other, and a value that does not coerce ends only
    the tests that read it: the verdicts are those of each test compiled
    and bound alone, whichever test comes first in the group."""
    obset, out = _two_calls_of_m(names)
    report = instantiate_on_trace(obset, out)
    assert report_rows(report) == reference_rows(obset, out)
    # B fails in the first call, so only A and C meet the string, and A
    # reads x alone
    assert {r.id: (r.verdict, r.detail, r.witness) for r in report.results} == {
        "m:A:assert": ("pass", "2 instantiation(s)", {}),
        "m:B:assert": ("fail", "falsified by recorded state", {"x": "0.1", "y": "1"}),
        "m:C:assert": ("not-instantiable", "expected an int argument, got 'junk'", {})}


def test_a_call_keeps_nothing_and_a_later_call_starts_afresh(quickselect_unit):
    """The index and bind cache of a call die with it, and with the cache
    which tests have ended, and with the frames every value computed on a
    bundle: once the first call has derived the set's plan and compiled
    its tests, a second call leaves the set, its plan, the plan's compiled
    tests and their tries, its obligations and the outcome as they were,
    and no cache is alive. Each later outcome on the same set gets a
    freshly generated set's report."""
    qs = "find_nth_lowest_number"
    kept = generate_obligations(quickselect_unit, qs)
    first = run_traced(quickselect_unit, qs, [[4, 4, 1, -3, 7, 0], 6, 3])
    instantiate_on_trace(kept, first)

    def held():
        return (sorted(vars(kept)), kept._trace_groups,
                [(tests, list(tests._tries)) for _, _, tests in kept._trace_groups[1]
                 if tests is not None],
                [sorted(vars(ob)) for ob in kept], sorted(vars(first)))

    before = held()
    assert before[2] and all(tries for _, tries in before[2])
    assert instantiate_on_trace(kept, first).passed
    gc.collect()
    assert not [o for o in gc.get_objects()
                if isinstance(o, (BindCache, vcgen._TraceIndex, interp.Frame))]
    after = held()
    assert after[0] == before[0] and after[3:] == before[3:]
    assert after[1] is before[1]
    assert len(after[2]) == len(before[2])
    for (tests, tries), (was, were) in zip(after[2], before[2]):
        assert tests is was and all(map(operator.is_, tries, were))
    for buf, n in (([3, 1, 2], 1), ([5, -1, 5, 0, 2], 2), ([2, 2, 2, 2], 3),
                   ([4, 4, 1, -3, 7, 0], 3)):
        out = run_traced(quickselect_unit, qs, [buf, len(buf), n])
        fresh = instantiate_on_trace(generate_obligations(quickselect_unit, qs), out)
        assert instantiate_on_trace(kept, out).results == fresh.results, buf


def test_a_later_call_on_an_unchanged_set_neither_groups_nor_compiles(
        quickselect_unit, monkeypatch):
    """The first call derives the set's plan; a second call, on another
    outcome, builds no validation formula and no CompiledTests, and
    reports what a fresh set reports."""
    qs = "find_nth_lowest_number"
    kept = generate_obligations(quickselect_unit, qs)
    calls = {"validation_formula": 0, "CompiledTests": 0}

    def spy(name):
        function = getattr(vcgen, name)

        def counted(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(vcgen, name, counted)

    spy("validation_formula")
    spy("CompiledTests")
    instantiate_on_trace(kept, run_traced(quickselect_unit, qs, [[3, 1, 2], 3, 1]))
    assert calls == {"validation_formula": len(kept),
                     "CompiledTests": len(kept._trace_groups[1])}
    out = run_traced(quickselect_unit, qs, [[5, -1, 5, 0, 2], 5, 2])
    calls.update(validation_formula=0, CompiledTests=0)
    report = instantiate_on_trace(kept, out)
    assert calls == {"validation_formula": 0, "CompiledTests": 0}
    monkeypatch.undo()
    fresh = generate_obligations(quickselect_unit, qs)
    assert report.results == instantiate_on_trace(fresh, out).results


def test_every_edit_gives_the_reference_rows(quickselect_unit):
    """A goal replaced, a hypothesis appended, a source changed from
    requires to lemma and an obligation removed each change the verdicts,
    and after each the report is the reference's. Each edit but the last
    puts a replace copy in the member's place in the set's list."""
    qs = "find_nth_lowest_number"
    obs = generate_obligations(quickselect_unit, qs)
    out = run_traced(quickselect_unit, qs, [[4, 4, 1, -3, 7, 0], 6, 3])
    k = next(k for k, ob in enumerate(obs) if ob.has_fresh)

    def put(**changes):
        ob = obs.obligations[k]
        obs.obligations[k] = replace(ob, **changes, tables=(ob._forms, ob._renders))

    def negate_goal():
        put(goal=S.Unary(op="!", operand=obs.obligations[k].goal, ty=S.BOOL))

    def append_false():
        ob = obs.obligations[k]
        put(hypotheses=(*ob.hypotheses, S.BoolLit(value=False, ty=S.BOOL)),
            hyp_sources=(*ob.hyp_sources, "requires"))

    def to_lemma():
        put(hyp_sources=(*obs.obligations[k].hyp_sources[:-1], "lemma"))

    def remove():
        del obs.obligations[k]

    rows = report_rows(instantiate_on_trace(obs, out))
    assert rows == reference_rows(obs, out)
    for edit in (negate_goal, append_false, to_lemma, remove):
        edit()
        edited = report_rows(instantiate_on_trace(obs, out))
        assert edited != rows, edit.__name__
        assert edited == reference_rows(obs, out), edit.__name__
        rows = edited


# both loops' invariants read LoopEntry; BUMP, before the inner loop, may
# change the multiset that the outer loop's invariant keeps
NESTED_LOOPENTRY = """
/*@ requires 1 <= n && n <= \\length(a);
  @ ensures true;
  @*/
void m(int[] a, int n) {
    int i = 0;
    int j = 0;
    /*@ loop_invariant OUTER;
      @ loop_variant n - i;
      @*/
    while (i < n) {
        BUMP
        j = 0;
        /*@ loop_invariant 0 <= j <= n && Permut{LoopEntry,Here}(a, 0, n - 1);
          @ loop_variant n - j;
          @*/
        while (j < n) {
            j = j + 1;
        }
        i = i + 1;
    }
}
"""
_OUTER = "0 <= i <= n && Permut{LoopEntry,Here}(a, 0, n - 1)"


def _nested(bump, outer=_OUTER):
    src = NESTED_LOOPENTRY.replace("BUMP", bump).replace("OUTER", outer)
    return typecheck(parse(src, "nested"))


def test_an_inner_loop_entry_state_does_not_reach_the_outer_loop_checks():
    # the runtime checks the outer invariant against the outer loop's own
    # entry state, not the one the inner loop took after the bump
    tu = _nested("a[0] = a[0] + 1;")
    out = exec_method(tu, "m", [[1, 2, 3], 3], "rational")
    assert out.status == "contract-violation"
    assert out.error == "invariant-preserved violated in m at line 8"

    # trace validation agrees: the outer invariant's preservation after the
    # inner loop exits, rehosted into a unit whose outer invariant reads no
    # LoopEntry (the same body, so the same loops and havoc symbols), is
    # falsified by that unit's trace
    bad = generate_obligations(tu).by_id("m:005:invariant-preserve")
    assert bad.loop_ids == (0, 1) and "\\permut(a@L0, " in expr_to_str(bad.goal)
    weak = _nested("a[0] = a[0] + 1;", "0 <= i <= n")
    weak_obs = generate_obligations(weak)
    rehosted = ObligationSet(
        unit=weak_obs.unit, unit_digest=weak_obs.unit_digest,
        obligations=list(weak_obs) + [replace(bad, id="injected:outer")])
    rep = instantiate_on_trace(rehosted, run_traced(weak, "m", [[1, 2, 3], 3]))
    assert [r.id for r in rep.failed] == ["injected:outer"]


def test_nested_loop_entry_states_pass_when_the_multiset_is_kept():
    tu = _nested("")
    out = run_traced(tu, "m", [[1, 2, 3], 3])
    rep = instantiate_on_trace(generate_obligations(tu), out)
    assert rep.failed == [] and rep.passed


def test_combos_pair_each_inner_snapshot_with_its_own_outer_iteration():
    def head(loop_id, iteration):
        return TraceSnapshot(kind="loop-head", method="m", loop_id=loop_id,
                             iteration=iteration)
    # an inner snapshot before any outer one, then two outer iterations
    # with two inner snapshots each, and the method's exit (the iteration
    # numbers tell every snapshot apart)
    early = head(2, 99)
    outer = [head(1, 0), head(1, 1)]
    inner = [[head(2, 10), head(2, 11)], [head(2, 20), head(2, 21)]]
    seg = [TraceSnapshot(kind="entry", method="m"), early,
           outer[0], *inner[0], outer[1], *inner[1],
           TraceSnapshot(kind="exit", method="m")]
    combos = vcgen._combos(seg, [1, 2])
    assert [(c[1], c[2]) for c in combos] == [
        (outer[k], snap) for k in (0, 1) for snap in inner[k]]
    assert all(c[2] != early for c in combos)
    assert vcgen._combos(seg, [2]) == [{2: s} for s in [early, *inner[0], *inner[1]]]
    assert vcgen._combos(seg, []) == [{}]


# pick's contract ties its result to the array it was given; a test that
# pairs m's second call with the result of the first reads a[3] with
# \length(a) == 1
MISPAIRED_PICK = """
/*@ requires 0 <= i && i < \\length(a);
  @ ensures a[\\result] == a[i] && \\result == i;
  @*/
int pick(int[] a, int i) {
    return i;
}

/*@ requires \\length(a) == 1 && \\length(b) == 5;
  @ ensures \\result >= 0;
  @*/
int m(int[] a, int[] b) {
    int s = pick(b, 3);
    int r = pick(a, 0);
    return r + s;
}
"""


def test_a_fault_in_a_test_is_reported_not_raised():
    tu = typecheck(parse(MISPAIRED_PICK, "mispaired"))
    out = run_traced(tu, "m", [[7], [1, 2, 3, 4, 5]])
    rep = instantiate_on_trace(generate_obligations(tu, "m"), out)
    assert [(r.id, r.verdict, r.detail) for r in rep.not_instantiable] == [
        ("m:000:ensures", "not-instantiable", "array index 3 out of bounds 0..0 at line 3")]
    assert not rep.failed and len(rep.passed) == 2
