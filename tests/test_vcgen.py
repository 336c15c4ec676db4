import os
import random
import time
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from miniwhy import corpus
from miniwhy import syntax as S
from miniwhy import prover, vcgen
from miniwhy.errors import MiniWhyError, VcgenError
from miniwhy.interp import eval_formula, exec_method
from miniwhy.parser import parse
from miniwhy.printer import expr_to_str
from miniwhy.prover import prove_internal
from miniwhy.simplify import simplify
from miniwhy.typecheck import CTX_ENSURES, typecheck
from miniwhy.vcgen import (Obligation, ObligationSet, Origin,
                           generate_obligations, instantiate_on_trace, wp)

from helpers import (ProgramGen, nested_variants, reference_eval,
                     reference_formula, report_rows, sequential_branches,
                     typed_formula)

TRANSLATE = """
/*@ ensures x == \\old(x) + dx && y == \\old(y) + dy;
  @*/
void translate(real x, real y, real dx, real dy) {
    x = x + dx;
    y = y + dy;
}
"""


def test_translate_yields_exactly_one_obligation():
    tu = typecheck(parse(TRANSLATE))
    obs = generate_obligations(tu, "translate")
    assert len(obs) == 1
    ob = obs.obligations[0]
    assert ob.kind == "ensures"
    # after Old-binding the goal is a tautology
    assert simplify(ob.goal) == S.BoolLit(value=True, ty=S.BOOL)


def test_wp_of_assignment_substitutes():
    from miniwhy.vcgen import unwrap_old
    tu = typecheck(parse(TRANSLATE))
    m = tu.method("translate")
    post = typed_formula("x == \\old(x) + dx && y == \\old(y) + dy",
                         dict(m.params), ctx="ensures")
    pre, sides = wp(tu, "translate", m.body, post)
    assert sides == []
    # substituted pre evaluates exactly like running the body
    sigma = {"x": 1, "y": 2, "dx": 3, "dy": 4}
    assert eval_formula(pre, {"Here": sigma, "Old": sigma}, "rational")
    # after Old-binding the formula is a tautology
    assert simplify(unwrap_old(pre)) == S.BoolLit(value=True, ty=S.BOOL)


def test_wp_of_newton_step_emits_division_guard():
    src = ("/*@ requires t > 0; @*/\n"
           "void m(real c, real t) { t = (c / t + t) / 2.0; }")
    tu = typecheck(parse(src))
    m = tu.method("m")
    post = typed_formula("t * t > c", dict(m.params))
    pre, sides = wp(tu, "m", m.body.stmts[0], post)
    kinds = [k for k, _ in sides]
    assert "division-guard" in kinds
    guard = next(f for k, f in sides if k == "division-guard")
    assert "t != " in expr_to_str(guard)
    # the substituted pre mentions the Newton step
    assert "(c / t + t) / 2.0" in expr_to_str(pre)


def test_wp_of_conditional():
    src = "void m(int j, int n, int l, int i) { if (j < n) { l = i; } }"
    tu = typecheck(parse(src))
    m = tu.method("m")
    post = typed_formula("l <= n", dict(m.params))
    pre, sides = wp(tu, "m", m.body.stmts[0], post)
    assert sides == []
    text = expr_to_str(pre)
    assert text == "(j < n ==> i <= n) && (!(j < n) ==> l <= n)"


def test_sqrt_obligation_kinds(sqrt_unit):
    obs = generate_obligations(sqrt_unit, "sqrt_newton")
    kinds = Counter(ob.kind for ob in obs)
    assert kinds["invariant-init"] == 1
    assert kinds["invariant-preserve"] == 1
    assert kinds["division-guard"] == 2
    assert kinds["ensures"] == 1          # loop exit establishes the ensures
    assert all(ob.kind != "variant-nonneg" for ob in obs)   # no variant given


def test_lemma_obligations(lemmas_unit):
    obs = generate_obligations(lemmas_unit)
    ids = [ob.id for ob in obs]
    assert ids == ["lemma:double_div_pos", "lemma:double_div_zero"]
    pos = obs.by_id("lemma:double_div_pos")
    assert pos.hypotheses == () and pos.hyp_sources == ()
    assert expr_to_str(pos.goal) == \
        "\\forall real x y; x > 0 && y > 0 ==> x / y > 0"


def test_lemmas_become_hypotheses_of_method_obligations():
    src = ("/*@ lemma triv : \\forall real x; x > 0 ==> x >= 0; @*/\n"
           "/*@ ensures \\result >= 0; @*/\n"
           "real f(real c) { return c * c; }")
    tu = typecheck(parse(src))
    obs = generate_obligations(tu, "f")
    method_obs = [ob for ob in obs if ob.kind != "lemma"]
    assert method_obs
    for ob in method_obs:
        assert ob.hyp_sources[0] == "lemma"
        assert isinstance(ob.hypotheses[0], S.Forall)


def test_generation_is_deterministic(quickselect_unit):
    a = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    b = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    assert [ob.id for ob in a] == [ob.id for ob in b]
    assert [expr_to_str(ob.goal) for ob in a] == [expr_to_str(ob.goal) for ob in b]
    assert len({ob.id for ob in a}) == len(a)          # ids unique


def test_quickselect_golden_counts(quickselect_unit):
    obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    kinds = Counter(ob.kind for ob in obs)
    # deterministic, documented counts of this generator
    assert len(obs) == 51
    assert kinds == Counter({"bounds-guard": 14, "invariant-preserve": 7,
                             "variant-nonneg": 6, "variant-decrease": 18,
                             "invariant-init": 5, "ensures": 1})


def test_obligations_carry_one_havoc_generation_per_loop(quickselect_unit):
    # the direct do-while rule never duplicates a loop's havoc inside one
    # obligation, so trace instantiation can mirror real execution steps
    obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    for ob in obs:
        per_loop = {}
        for n in S.walk(ob.goal):
            if isinstance(n, S.FreshVar) and n.loop_id >= 0:
                per_loop.setdefault(n.loop_id, set()).add(n.name)
        for loop_id, names in per_loop.items():
            bases = {nm.split("@")[0] for nm in names}
            assert len(names) == len(bases), (ob.id, names)


def test_havoc_replaces_assigned_variables():
    src = ("/*@ requires n >= 0; ensures \\result >= 0; @*/\n"
           "int f(int n) {\n"
           "  int x = n;\n"
           "  /*@ loop_invariant x >= 0; loop_variant x; @*/\n"
           "  while (x > 0) { x = x - 1; }\n"
           "  return x;\n"
           "}")
    tu = typecheck(parse(src))
    obs = generate_obligations(tu, "f")
    preserve = next(ob for ob in obs if ob.kind == "invariant-preserve")
    names = {n.name for n in S.walk(preserve.goal) if isinstance(n, S.Var)}
    fresh = {n.name for n in S.walk(preserve.goal) if isinstance(n, S.FreshVar)}
    assert "x" not in names                     # pre-loop symbol never leaks
    assert fresh == {"x@L0"}
    assert preserve.loop_ids == (0,)
    decrease = next(ob for ob in obs if ob.kind == "variant-decrease")
    assert {n.name for n in S.walk(decrease.goal) if isinstance(n, S.Var)} \
        .isdisjoint({"x"})


def test_call_rule_emits_requires_side(stddev_unit):
    obs = generate_obligations(stddev_unit, "calculate_std_dev")
    kinds = Counter(ob.kind for ob in obs)
    assert kinds["call-requires"] == 1
    assert kinds["behaviour"] == 2
    assert kinds["ensures"] == 1
    req = next(ob for ob in obs if ob.kind == "call-requires")
    assert "sqrt" in req.name


def test_recursion_is_rejected():
    src = "int f(int n) { int t = f(n); return t; }"
    tu = typecheck(parse(src))
    with pytest.raises(VcgenError) as exc:
        generate_obligations(tu, "f")
    assert "recursive" in str(exc.value)


def test_sequential_branches_stop_at_the_vcgen_budget():
    tu = typecheck(parse(sequential_branches(24)))
    t0 = time.perf_counter()
    with pytest.raises(VcgenError, match=r"method 'f' exceed the vcgen budget "
                                         r"of 100000 substituted nodes"):
        generate_obligations(tu)
    assert time.perf_counter() - t0 < 1.0


def test_the_corpus_stays_far_below_the_vcgen_budget(monkeypatch):
    spent = []
    spend = vcgen._Wp.spend

    def record(engine, memo):
        spend(engine, memo)
        spent.append(engine.spent)

    monkeypatch.setattr(vcgen._Wp, "spend", record)
    for e in corpus.corpus_sources():
        generate_obligations(corpus.unit(e.name))
    # quickselect's main pass creates the most: 1 636 nodes
    assert max(spent) == 1_636
    assert 5 * max(spent) <= vcgen.VCGEN_BUDGET


# d nested `while` loops, each with an invariant and a variant: each body
# is walked once, and its one pass gives the preservation listing and the
# variant's decrease listing

def _nested(d):
    return generate_obligations(typecheck(parse(nested_variants(d))))


def test_nested_variants_keep_the_obligations_of_a_decrease_pass_of_their_own():
    """Ids, names and printed goals for d = 1..7, as generated when every
    variant walked its body in a second wp pass (the golden was written
    by that generator)."""
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "nested_variants.obligations.txt")
    lines = [f"{d}\t{ob.id}\t{ob.name}\t{expr_to_str(ob.goal)}\n"
             for d in range(1, 8) for ob in _nested(d)]
    with open(path, encoding="utf-8") as fh:
        assert "".join(lines) == fh.read()


@pytest.mark.parametrize("d", range(1, 9))
def test_a_nested_repeat_is_its_first_occurrence_goal_object(d):
    obs = _nested(d)
    first = {}
    for ob in obs:
        assert ob.goal is first.setdefault(expr_to_str(ob.goal), ob.goal), ob.id
    assert len(first) == 4 * d + 1
    # past the vcgen budget when each variant walked its body again
    assert d < 8 or len(obs) == 407


def test_nested_variants_prove_each_distinct_obligation_once(monkeypatch):
    proved = []
    prove = prover._prove
    monkeypatch.setattr(prover, "_prove",
                        lambda ob: proved.append((ob.goal, ob.hypotheses)) or prove(ob))
    for d in range(1, 8):
        proved.clear()
        for ob in _nested(d):
            prove_internal(ob)
        assert len({(id(g), id(h)) for g, h in proved}) == len(proved) == 4 * d + 1


def test_ten_nested_variants_generate_and_prove_within_a_second():
    t0 = time.perf_counter()
    obs = _nested(10)
    statuses = [prove_internal(ob) for ob in obs]
    assert time.perf_counter() - t0 < 1.0
    assert len(obs) == 1565 and "refuted" not in {st.status for st in statuses}


# a variant loop whose body runs an inner loop and then may return: the
# decrease claim reaches the body's entry through the inner loop's exit
# chain, on the path that does not return
RETURN_AFTER_INNER_LOOP = """
/*@ requires n >= 0;
  @ ensures true;
  @*/
void f(int n) {
    int i = 0;
    /*@ loop_invariant 0 <= i && i <= n;
      @ loop_variant n - i;
      @*/
    while (i < n) {
        int j = 0;
        /*@ loop_invariant 0 <= j; @*/
        while (j < 1) {
            j = j + 1;
        }
        if (n < 0) {
            return;
        }
        i = STEP;
    }
}
"""


@pytest.mark.parametrize("step, claim, proved", [
    ("i + 1", "n - (i@L0 + 1) < n - i@L0", True),
    ("i", "n - i@L0 < n - i@L0", False)])
def test_a_return_after_an_inner_loop_keeps_the_decrease_claim(step, claim, proved):
    """The `if` with a return gives the inner loop's exit sides the exit
    kind, but the one that carries the decrease post is still listed as a
    variant-decrease, which a body that leaves the variant as it is does
    not prove."""
    tu = typecheck(parse(RETURN_AFTER_INNER_LOOP.replace("STEP", step)))
    obs = generate_obligations(tu).obligations
    decrease = [ob for ob in obs if ob.kind == "variant-decrease"]
    assert [ob.id for ob in decrease] == ["f:005:variant-decrease",
                                          "f:006:variant-decrease"]
    assert expr_to_str(decrease[1].goal).endswith(f"(!(n < 0) ==> {claim})")
    assert prove_internal(decrease[1]).proved == proved


def _inventory(src):
    return [(ob.id, ob.name) for ob in generate_obligations(typecheck(parse(src)))]


def test_a_return_on_one_branch_keeps_the_kind_of_a_post():
    """A post keeps the kind it came in with unless both branches of an
    `if` give it one new kind: the outer invariant's preservation through
    the inner loop's exit is an invariant-preserve side, not the method's
    postcondition, and a behaviour pass does not list it again."""
    src = RETURN_AFTER_INNER_LOOP.replace("STEP", "i + 1")
    head = [
        ("f:000:invariant-init", "loop invariant initially holds [line 2]"),
        ("f:001:invariant-preserve", "loop invariant preserved [line 7]"),
        ("f:002:invariant-preserve", "loop invariant preserved [line 12]"),
        ("f:003:invariant-preserve",
         "loop invariant preserved (loop exit) [line 12]"),
        ("f:004:variant-nonneg", "loop variant non-negative [line 7]"),
        ("f:005:variant-decrease", "loop variant decreases [line 7]"),
        ("f:006:variant-decrease", "loop variant decreases (loop exit) [line 12]"),
        ("f:007:ensures", "postcondition holds (loop exit) [line 7]")]
    assert _inventory(src) == head
    src = src.replace("  @ ensures true;\n",
                      "  @ ensures true;\n  @ behaviour b: assumes n > 5; ensures true;\n")
    # the behaviour line moves every later line down by one
    shifted = [(oid, name.replace("line 7]", "line 8]").replace("line 12]", "line 13]"))
               for oid, name in head]
    assert _inventory(src) == shifted + [
        ("f:008:behaviour", "behaviour postcondition holds (b, loop exit) [line 8]")]


def test_mutual_recursion_is_rejected():
    src = ("int f(int n) { int t = g(n); return t; }\n"
           "int g(int n) { int t = f(n); return t; }")
    tu = typecheck(parse(src))
    with pytest.raises(VcgenError):
        generate_obligations(tu, "f")


def test_call_contract_over_mutated_param_rejected():
    src = ("/*@ ensures x == \\old(x) + 1; @*/\n"
           "real bump(real x) { x = x + 1; return x; }\n"
           "real f(real y) { real t = bump(y); return t; }")
    tu = typecheck(parse(src))
    with pytest.raises(VcgenError) as exc:
        generate_obligations(tu, "f")
    assert "reassigns" in str(exc.value)


def test_behaviour_hypotheses_include_assumes(stddev_unit):
    obs = generate_obligations(stddev_unit, "calculate_std_dev")
    beh = [ob for ob in obs if ob.kind == "behaviour"]
    for ob in beh:
        assert "assumes" in ob.hyp_sources
        assert "requires" in ob.hyp_sources


BEHAVIOUR_SPEC = ("/*@ requires n >= 0; ensures true;\n"
                  "  @ behaviour seven: assumes n >= 0; ensures \\result == 7; @*/\n")
# two bodies in which the behaviour's chain shares an obligation with another
# kind, each with the statement that breaks the behaviour and one that keeps it
BEHAVIOUR_BODIES = {
    # a loop on one path only: the pre's kind is invariant-init
    "loop-on-one-path": (
        "int m(int n) { int r = 0; if (n > 5) { int i = 0; "
        "/*@ loop_invariant 0 <= i; @*/ while (i < 3) { i = i + 1; } r = 7; } "
        "else { r = %d; } return r; }"),
    # a return inside the loop body: the chain is in invariant-preserve
    "return-in-loop": (
        "int m(int n) { int i = 0; /*@ loop_invariant 0 <= i; @*/ "
        "while (i < 3) { if (n == 2) { return %d; } i = i + 1; } return 7; }"),
}


@pytest.mark.parametrize("shape", sorted(BEHAVIOUR_BODIES))
def test_a_behaviour_chain_in_another_kinds_obligation_is_kept(shape):
    tu = typecheck(parse(BEHAVIOUR_SPEC + BEHAVIOUR_BODIES[shape] % 1))
    assert exec_method(tu, "m", [2], "rational").status == "contract-violation"
    statuses = [prove_internal(ob).status for ob in generate_obligations(tu)
                if ob.kind == "behaviour"]
    assert any(st != "proved-internal" for st in statuses), statuses


@pytest.mark.parametrize("shape", sorted(BEHAVIOUR_BODIES))
def test_a_kept_behaviour_chain_is_proved_and_holds_on_traces(shape):
    tu = typecheck(parse(BEHAVIOUR_SPEC + BEHAVIOUR_BODIES[shape] % 7))
    obs = generate_obligations(tu)
    assert all(prove_internal(ob).status == "proved-internal" for ob in obs)
    for n in (2, 7):
        out = exec_method(tu, "m", [n], "rational", trace=True)
        assert out.status == "normal", out.error
        assert not instantiate_on_trace(obs, out).failed, n


def test_assert_becomes_side_obligation_and_assumption():
    src = ("/*@ requires n >= 1; ensures \\result >= 2; @*/\n"
           "int f(int n) {\n"
           "  int m = n + n;\n"
           "  /*@ assert m >= 2; @*/\n"
           "  return m;\n"
           "}")
    tu = typecheck(parse(src))
    obs = generate_obligations(tu, "f")
    kinds = [ob.kind for ob in obs]
    assert "assert" in kinds
    main = next(ob for ob in obs if ob.kind == "ensures")
    # assert is assumed by the continuation: the main goal is an implication
    assert isinstance(main.goal, S.Binary) and main.goal.op == "==>"


# ---------------------------------------------------------------------------
# trace validation compiles each obligation once per call

def _traced_runs(quickselect_unit, sqrt_unit, seed):
    """Normal traced runs of quickselect and of both sqrt methods."""
    rng = random.Random(seed)
    runs = []
    for _ in range(3):
        n = rng.randint(1, 7)
        buf = [rng.randint(-9, 9) for _ in range(n)]
        runs.append((quickselect_unit, "find_nth_lowest_number",
                     [buf, n, rng.randrange(n)], "rational"))
    c = Fraction(rng.randint(0, 40), rng.choice([1, 2, 4]))
    runs.append((sqrt_unit, "sqrt", [c], "rational"))
    runs.append((sqrt_unit, "sqrt_newton", [c, Fraction(1, 100)], "rational"))
    runs.append((sqrt_unit, "sqrt", [float(c)], "binary64"))
    out = []
    for unit, method, args, mode in runs:
        o = exec_method(unit, method, args, mode, trace=True)
        if o.status == "normal":
            out.append((unit, method, o))
    return out


def _fault(ex) -> str:
    return f"{type(ex).__name__}: {ex}"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MiniWhyError as ex:
        return _fault(ex)


def test_compiled_validation_formula_agrees_with_bare_evaluation(
        quickselect_unit, sqrt_unit, monkeypatch):
    """For every instantiation trace validation makes, the group call gives
    each live test the outcome that the tests' reference evaluator gives
    on the test alone, compiled and bound afresh: a test that holds stays
    live, a false one ends with False, and one that faults (in compiling
    or evaluating) ends with that fault, of the same class and text. A
    test that ended is not evaluated again in the call."""
    evaluate = vcgen.eval_formula
    ended = {}                  # (cache, group) -> tests ended in the call
    seen = Counter()

    def checked_eval(tests, states, mode, cache=None):
        got = dict(evaluate(tests, states, mode, cache=cache))
        done = ended.setdefault((id(cache), id(tests)), set())
        assert not done & got.keys()
        for t, f in enumerate(tests.tests):
            if t in done:
                continue
            bare = _outcome(reference_eval, f, states, mode)
            if isinstance(bare, str):
                assert _fault(got[t]) == bare
                compiles = not isinstance(_outcome(reference_formula, f, states, mode), str)
                seen["error" if compiles else "compile error"] += 1
            else:
                assert got.get(t, True) is bare
                seen["value"] += 1
            seen["cached"] += cache is not None
        done |= got.keys()
        return list(got.items())

    monkeypatch.setattr(vcgen, "eval_formula", checked_eval)
    qs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    # goals no trace can evaluate: one fails to compile, one when it runs
    for i, (text, sorts) in enumerate([
            ("absent > 0", {"absent": S.INT}),
            ("\\forall integer k; buf[0] <= buf[k]", {"buf": S.ARRAY_REAL})]):
        qs.obligations.append(Obligation(
            id=f"unevaluable:{i}", name=text,
            origin=Origin("find_nth_lowest_number", 1, "assert"),
            hypotheses=[], hyp_sources=[], goal=typed_formula(text, sorts)))
    obsets = {quickselect_unit.unit.name: qs,
              sqrt_unit.unit.name: generate_obligations(sqrt_unit)}
    modes = Counter()
    for seed in (1, 2, 3):
        for unit, _method, out in _traced_runs(quickselect_unit, sqrt_unit, seed):
            ended.clear()
            rep = instantiate_on_trace(obsets[unit.unit.name], out)
            assert not rep.failed
            modes[out.mode] += 1
    assert modes["rational"] >= 12 and modes["binary64"] >= 1
    assert seen["value"] > 500 and seen["error"] and seen["compile error"], seen
    assert seen["cached"] == seen["value"] + seen["error"] + seen["compile error"], seen


def _hand_built(ob):
    """The obligation as a caller would build it: no generation-time data."""
    return Obligation(id=ob.id, name=ob.name, origin=ob.origin,
                      hypotheses=list(ob.hypotheses),
                      hyp_sources=list(ob.hyp_sources), goal=ob.goal)


def test_hand_built_havoc_obligations_validate_like_generated_ones(quickselect_unit):
    obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    generated = [ob for ob in obs if ob.has_fresh]
    assert generated
    # negated goals fail on the trace, so witnesses are compared as well
    generated += [replace(ob, id=ob.id + ":negated",
                          goal=S.Unary(op="!", operand=ob.goal, ty=S.BOOL))
                  for ob in generated]
    hand = [_hand_built(ob) for ob in generated]
    assert not any(ob.var_sorts or ob.loop_ids for ob in hand)
    sets = [ObligationSet(unit=obs.unit, unit_digest=obs.unit_digest,
                          obligations=part) for part in (generated, hand)]
    verdicts = Counter()
    for buf, n in (([3, 1, 2], 1), ([5, 5, 1, 4, 1, 2], 3), ([9, -2, 7, 7, 0], 0)):
        out = exec_method(quickselect_unit, "find_nth_lowest_number",
                          [buf, len(buf), n], "rational", trace=True)
        want, got = (instantiate_on_trace(s, out).results for s in sets)
        assert got == want
        verdicts.update(r.verdict for r in got)
    assert verdicts["pass"] and verdicts["fail"]


def test_validation_follows_an_edited_obligation(quickselect_unit):
    """An edit puts a replace copy in the member's place in the set's list;
    the set's plan follows it."""
    obs = generate_obligations(quickselect_unit, "find_nth_lowest_number")
    ob = next(ob for ob in obs if ob.has_fresh)
    single = ObligationSet(unit=obs.unit, unit_digest=obs.unit_digest,
                           obligations=[ob])
    out = exec_method(quickselect_unit, "find_nth_lowest_number",
                      [[3, 1, 2], 3, 1], "rational", trace=True)
    assert instantiate_on_trace(single, out).results[0].verdict == "pass"
    ((key, _, tests),) = single._trace_groups[1]
    # the negated goal has the same free symbols, so the obligation keeps
    # its group's key, and the set's plan is derived afresh
    ob = single.obligations[0] = replace(ob, goal=S.Unary(op="!", operand=ob.goal,
                                                          ty=S.BOOL))
    assert instantiate_on_trace(single, out).results[0].verdict == "fail"
    ((same_key, _, fresh),) = single._trace_groups[1]
    assert same_key == key and fresh is not tests
    assert fresh.tests == (vcgen.validation_formula(ob),)
    ob = single.obligations[0] = replace(ob, goal=S.BoolLit(value=False, ty=S.BOOL))
    assert instantiate_on_trace(single, out).results[0].verdict == "fail"
    # the goal has no free symbol now, so the obligation is in a new group
    ((new_key, _, _),) = single._trace_groups[1]
    assert new_key == (ob.origin.method, (), ())


def test_obligations_are_frozen_so_siblings_share_hypotheses_safely(quickselect_unit):
    """Quickselect's 51 main-pass obligations share one hypotheses tuple
    and one sources tuple. An obligation is frozen, so an edit is a
    replace copy: appending a hypothesis that faults on every state to
    one of them changes its trace row alone, and its 50 siblings keep
    their verdicts and trace rows."""
    qs = "find_nth_lowest_number"
    obs = generate_obligations(quickselect_unit, qs)
    ob = obs.obligations[0]
    with pytest.raises(FrozenInstanceError):
        ob.goal = S.BoolLit(value=False, ty=S.BOOL)
    assert len(obs) == 51
    assert all(o.hypotheses is ob.hypotheses and o.hyp_sources is ob.hyp_sources
               for o in obs)
    out = exec_method(quickselect_unit, qs, [[4, 4, 1, -3, 7, 0], 6, 3],
                      "rational", trace=True)

    def outcomes(obset):
        return ([(o.id, prove_internal(o).detail) for o in obset],
                report_rows(instantiate_on_trace(obset, out)))

    verdicts, rows = outcomes(obs)
    faults = typed_formula("1 / 0 > 0", {})
    obs.obligations[0] = replace(ob, hypotheses=(*ob.hypotheses, faults),
                                 hyp_sources=(*ob.hyp_sources, "requires"),
                                 tables=(obs._forms, obs._renders))
    assert all(o.hypotheses is ob.hypotheses for o in obs.obligations[1:])
    new_verdicts, new_rows = outcomes(obs)
    assert new_rows[0] != rows[0] and new_rows[0][1] == "not-instantiable"
    assert new_verdicts[1:] == verdicts[1:] and new_rows[1:] == rows[1:]


def test_hypotheses_and_sources_pair_one_to_one():
    """Sources left out are "?" each, which is not a lemma, so the prover
    and trace validation read every hypothesis, as the exporters do; a
    source list of another length is refused."""
    sorts = {"x": S.INT}
    hyps = [typed_formula("x > 0", sorts), typed_formula("x > 5", sorts)]
    goal = typed_formula("x > 3", sorts)

    def ob(sources):
        return Obligation(id="m:000:assert", name="t", origin=Origin("m", 1, "assert"),
                          hypotheses=hyps, hyp_sources=sources, goal=goal,
                          var_sorts=sorts)

    with pytest.raises(VcgenError, match="2 hypotheses but 1 sources"):
        ob(["requires"])
    unsourced = ob([])
    assert unsourced.hyp_sources == ("?", "?")
    assert expr_to_str(vcgen.validation_formula(unsourced)) == \
        "x > 0 ==> x > 5 ==> x > 3"
    assert prove_internal(unsourced).status == "proved-internal"


def test_call_arguments_are_substituted_simultaneously():
    # diff(b, a) swaps the caller's names for the callee's parameters; one
    # parameter at a time would turn `a < b` into `a < a`
    src = ("/*@ requires a < b; ensures \\result == b - a; @*/\n"
           "int diff(int a, int b) { return b - a; }\n"
           "/*@ requires b < a; ensures \\result > 0; @*/\n"
           "int f(int a, int b) { int t = diff(b, a); return t; }")
    obs = generate_obligations(typecheck(parse(src)), "f")
    goals = {ob.kind: expr_to_str(ob.goal) for ob in obs}
    assert goals == {"call-requires": "b < a",
                     "ensures": "diff@r1 == a - b ==> diff@r1 > 0"}


GHOST_ACCESSES = {
    "old": ("/*@ ghost int g = 0; @*/\n"
            "/*@ set g = \\length(a) + \\old(a[n]); @*/",
            "n >= 0 && n < \\length(a)"),
    # the guard is stated in the entry state, not over the assigned n
    "old-after-assignment": ("n = 0;\n/*@ ghost int g = 0; @*/\n"
                             "/*@ set g = \\old(a[n]); @*/",
                             "n >= 0 && n < \\length(a)"),
    "forall": ("/*@ ghost bool g = true; @*/\n"
               "/*@ set g = (\\forall integer k; 0 <= k && k < n ==> a[k] > 0); @*/",
               "\\forall integer k; 0 <= k && k < n ==> k >= 0 && k < \\length(a)"),
}


@pytest.mark.parametrize("case", sorted(GHOST_ACCESSES))
def test_ghost_accesses_under_old_and_forall_are_guarded(case):
    ghost, want = GHOST_ACCESSES[case]
    src = ("/*@ requires n >= 0;\n  @ ensures true;\n  @*/\n"
           "void m(int[] a, int n) {\n" + ghost + "\n}")
    tu = typecheck(parse(src))
    guards = [ob for ob in generate_obligations(tu) if ob.kind == "bounds-guard"]
    assert [expr_to_str(ob.goal) for ob in guards] == [want]
    # the guard holds at entry exactly when the run raises no index fault
    test = vcgen.validation_formula(guards[0])
    for a, n in (([1], 5), ([1], 0), ([2, 3], 1), ([2, 3], 2), ([], 0)):
        runs = exec_method(tu, "m", [a, n], "rational").status != "runtime-error"
        state = {"a": a, "n": n}
        assert eval_formula(test, {"Here": dict(state), "Old": dict(state)},
                            "rational") == runs, (a, n)


# ---------------------------------------------------------------------------
# obligation closure

def test_escaped_loop_entry_label_is_an_internal_error():
    # a LoopEntry marker that no loop's havoc consumed, wherever it sits
    x = S.Var(name="x", ty=S.INT)
    at = S.AtLabel(operand=x, label="LoopEntry#3", ty=S.INT)
    zero = S.IntLit(value=0, ty=S.INT)
    plain = S.Binary(op="<", left=at, right=zero, ty=S.BOOL)
    under_old = S.Binary(op="<", left=S.OldExpr(operand=at, ty=S.INT),
                         right=zero, ty=S.BOOL)
    under_forall = S.Forall(binders=[("k", S.INT)], body=plain, ty=S.BOOL)
    for goal in (plain, under_old, under_forall):
        with pytest.raises(VcgenError) as info:
            vcgen._make_obligation("m", 0, "assert", 1, "", goal, [], [])
        assert str(info.value) == \
            "internal: LoopEntry label escaped obligation closure"


def test_old_is_unwrapped_at_closure_and_symbols_keep_their_order():
    types = {"z": S.REAL, "y": S.REAL, "n": S.INT, "a": S.ARRAY_REAL,
             "b": S.ARRAY_REAL, "w": S.INT}
    text = ("\\forall integer k; 0 <= k < n ==> "
            "{a} + y == b[k] && {y} < z")
    goal = typed_formula(text.format(a="\\old(a[k])", y="\\old(y)"), types,
                         CTX_ENSURES)
    hyp = typed_formula("w > 0 && n >= 0", types, CTX_ENSURES)
    ob = vcgen._make_obligation("m", 0, "ensures", 1, "", goal, [hyp],
                                ["requires"])
    assert not any(isinstance(n, S.OldExpr) for n in S.walk(ob.goal))
    assert ob.goal == typed_formula(text.format(a="a[k]", y="y"), types)
    # goal symbols in walk order, then the hypotheses' new ones
    assert list(ob.var_sorts) == ["n", "a", "y", "b", "z", "w"]
    assert ob.var_sorts == {name: types[name] for name in ob.var_sorts}
    assert ob.loop_ids == ()


STATE_NODES = (S.OldExpr, S.AtLabel, S.PermutPred, S.ResultExpr)

# every state construct in every clause position: \old and \result in
# ensures, Permut labels in requires, assumes, ensures and both loop kinds'
# invariants, LoopEntry in a variant's decrease, and a call to a method
# whose ensures uses \old
STATES = """
/*@ requires n >= 0;
  @ ensures \\result == \\old(n) + 1;
  @*/
int inc(int n) {
    return n + 1;
}

/*@ requires 1 <= n && n <= \\length(a) && Permut{Old,Here}(a, 0, n - 1);
  @ ensures \\result == \\old(n) + 1 && Permut{Old,Here}(a, 0, n - 1);
  @ behaviour positive :
  @   assumes Permut{Old,Pre}(a, 0, n - 1) && n >= 1;
  @   ensures \\result >= 2;
  @*/
int shuffle(int[] a, int n) {
    int i = 0;
    /*@ loop_invariant 0 <= i <= n
      @   && Permut{LoopEntry,Here}(a, 0, n - 1) && Permut{Pre,Here}(a, 0, n - 1);
      @ loop_variant n - i;
      @*/
    while (i < n) {
        int t = a[0];
        a[0] = a[i];
        a[i] = t;
        i = i + 1;
    }
    int r = inc(n);
    return r;
}

/*@ requires 1 <= n && n <= \\length(a);
  @ ensures Permut{Old,Here}(a, 0, n - 1);
  @*/
void rotate(int[] a, int n) {
    int i = 0;
    /*@ loop_invariant 1 <= i <= n && Permut{LoopEntry,Here}(a, 0, n - 1);
      @ loop_variant n - i;
      @*/
    do {
        int t = a[0];
        a[0] = a[i];
        a[i] = t;
        i = i + 1;
    } while (i < n);
}
"""


def _state_nodes(ob):
    return [type(n).__name__ for f in [ob.goal, *ob.hypotheses]
            for n in S.walk(f) if isinstance(n, STATE_NODES)]


def test_corpus_obligations_are_state_free():
    for entry in corpus.corpus_sources():
        for ob in generate_obligations(corpus.unit(entry.name)):
            assert _state_nodes(ob) == [], ob.id


def test_random_programs_with_old_in_ensures_close_state_free():
    for seed in range(200):
        src, post = ProgramGen(seed).program()
        post = post.replace("a", "\\old(a)").replace("u", "\\old(u)")
        tu = typecheck(parse(src.replace("ensures true", f"ensures {post}")))
        for ob in generate_obligations(tu):
            assert _state_nodes(ob) == [], (seed, ob.id)


def test_every_state_construct_closes_to_a_state_free_obligation():
    tu = typecheck(parse(STATES))
    obs = generate_obligations(tu)
    assert {"ensures", "behaviour", "invariant-init", "invariant-preserve",
            "variant-decrease", "call-requires"} <= {ob.kind for ob in obs}
    for ob in obs:
        assert _state_nodes(ob) == [], ob.id
        assert prove_internal(ob).status != "refuted", ob.id
    # LoopEntry is Here at a loop's first invariant check
    for oid in ("shuffle:000:invariant-init", "rotate:000:invariant-init"):
        assert prove_internal(obs.by_id(oid)).proved, oid
    for method in ("shuffle", "rotate"):
        out = exec_method(tu, method, [[3, 1, 2], 3], "rational", trace=True)
        assert out.status == "normal"
        rep = instantiate_on_trace(obs, out)
        assert rep.failed == [] and rep.passed, method


_X = S.Var(name="x", ty=S.INT)
_ZERO = S.IntLit(value=0, ty=S.INT)


@pytest.mark.parametrize("where, node, what", [
    ("goal", S.PermutPred(array=S.Var(name="a", ty=S.ARRAY_INT), lo=_ZERO,
                          hi=_ZERO, ty=S.BOOL), "Permut predicate"),
    ("goal", S.Binary(op="==", left=S.ResultExpr(ty=S.INT), right=_ZERO,
                      ty=S.BOOL), "\\result"),
    ("hyp", S.Binary(op="<", left=S.AtLabel(operand=_X, label="LoopEntry#0",
                                             ty=S.INT),
                     right=_ZERO, ty=S.BOOL), "LoopEntry label"),
    ("hyp", S.Binary(op="<", left=S.OldExpr(operand=_X, ty=S.INT),
                     right=_ZERO, ty=S.BOOL), "\\old"),
], ids=["permut-in-goal", "result-in-goal", "loopentry-in-hyp", "old-in-hyp"])
def test_state_nodes_escaping_closure_are_internal_errors(where, node, what):
    true = S.BoolLit(value=True, ty=S.BOOL)
    goal, hyps = (node, [true]) if where == "goal" else (true, [node])
    with pytest.raises(VcgenError) as info:
        vcgen._make_obligation("m", 0, "assert", 1, "", goal, hyps, ["requires"])
    assert str(info.value) == f"internal: {what} escaped obligation closure"


# ---------------------------------------------------------------------------
# wp rules that no corpus unit reaches, pinned by each obligation's printed
# goal and prover verdict

WP_PATHS = {
    # the bounds guard of a[x] differs between the branches, so it is
    # merged under both conditions
    "merge": """
/*@ requires \\length(a) == 3;
  @ ensures true;
  @*/
void m(int[] a, int n) {
    int x = 0;
    if (n > 5) { x = 1; } else { x = 2; }
    a[x] = 0;
}
""",
    # a guard made in the else branch alone is stated under !cond
    "else_only": """
/*@ requires 0 <= n && n < \\length(a);
  @ ensures true;
  @*/
void m(int[] a, int n) {
    int x = 0;
    if (n > 5) { x = 1; } else { x = a[n]; }
}
""",
    # a do loop's condition guards hold under its havocked invariant
    "do_guard": """
/*@ requires 1 <= n && n < \\length(a);
  @ ensures true;
  @*/
void m(int[] a, int n) {
    int i = 0;
    /*@ loop_invariant 0 <= i && i <= n; @*/
    do { i = i + 1; } while (i < n && a[i] > 0);
}
""",
    # a callee's behaviours become assumes ==> ensures parts of the call's
    # assumption, under which the pending assert is stated too; it stays
    # unknown, since k < 5 ==> k <= 4 needs integer tightening
    "behaviours": """
/*@ requires n >= 0;
  @ ensures \\result >= 0;
  @ behaviour small :
  @   assumes n < 10;
  @   ensures \\result == n;
  @ behaviour large :
  @   assumes n >= 10;
  @   ensures \\result == 10;
  @*/
int clip(int n) {
    int r = n;
    if (n >= 10) { r = 10; }
    return r;
}

/*@ requires k >= 0 && k < 5;
  @ ensures \\result == k + 1;
  @*/
int m(int k) {
    int c = clip(k);
    /*@ assert c <= 4; @*/
    return c + 1;
}
""",
    # a return ends its path: the sides pending after it, the assert and
    # the second call's requires, are true on the path that returns, also
    # through a call with no target
    "early_return": """
/*@ requires n >= 0;
  @ ensures \\result == n + 1;
  @*/
int inc(int n) {
    return n + 1;
}

/*@ requires true;
  @ ensures \\result >= 0;
  @*/
int m(int x) {
    if (x < 0) { return inc(0); }
    int y = inc(x);
    /*@ assert y > 0; @*/
    return y;
}
""",
}

WP_PATHS_EXPECTED = {
    "merge": [
        ("m:000:ensures", "(n > 5 ==> true) && (!(n > 5) ==> true)",
         "proved-internal"),
        ("m:001:bounds-guard",
         "(n > 5 ==> 1 >= 0 && 1 < \\length(a))"
         " && (!(n > 5) ==> 2 >= 0 && 2 < \\length(a))", "proved-internal"),
    ],
    "else_only": [
        ("m:000:ensures", "(n > 5 ==> true) && (!(n > 5) ==> true)",
         "proved-internal"),
        ("m:001:bounds-guard", "!(n > 5) ==> n >= 0 && n < \\length(a)",
         "proved-internal"),
    ],
    "do_guard": [
        ("m:000:invariant-init", "0 <= 0 + 1 && 0 + 1 <= n",
         "proved-internal"),
        ("m:001:bounds-guard",
         "0 <= i@L0 && i@L0 <= n ==> i@L0 < n"
         " ==> i@L0 >= 0 && i@L0 < \\length(a)", "proved-internal"),
        ("m:002:invariant-preserve",
         "0 <= i@L0 && i@L0 <= n && (i@L0 < n && a[i@L0] > 0)"
         " ==> 0 <= i@L0 + 1 && i@L0 + 1 <= n", "unknown"),
        ("m:003:ensures",
         "0 <= i@L0 && i@L0 <= n && !(i@L0 < n && a[i@L0] > 0) ==> true",
         "proved-internal"),
    ],
    "behaviours": [
        ("m:000:ensures",
         "clip@r2 >= 0 && (k < 10 ==> clip@r2 == k)"
         " && (k >= 10 ==> clip@r2 == 10)"
         " ==> clip@r2 <= 4 ==> clip@r2 + 1 == k + 1", "proved-internal"),
        ("m:001:assert",
         "clip@r2 >= 0 && (k < 10 ==> clip@r2 == k)"
         " && (k >= 10 ==> clip@r2 == 10) ==> clip@r2 <= 4", "unknown"),
        ("m:002:call-requires", "k >= 0", "proved-internal"),
    ],
    "early_return": [
        ("m:000:ensures",
         "(x < 0 ==> inc@r4 == 0 + 1 ==> inc@r4 >= 0)"
         " && (!(x < 0) ==> inc@r2 == x + 1 ==> inc@r2 > 0 ==> inc@r2 >= 0)",
         "proved-internal"),
        ("m:001:assert",
         "(x < 0 ==> true) && (!(x < 0) ==> inc@r2 == x + 1 ==> inc@r2 > 0)",
         "proved-internal"),
        ("m:002:call-requires", "(x < 0 ==> true) && (!(x < 0) ==> x >= 0)",
         "proved-internal"),
        ("m:003:call-requires", "x < 0 ==> 0 >= 0", "proved-internal"),
    ],
}


@pytest.mark.parametrize("case", sorted(WP_PATHS))
def test_wp_rule_paths_are_pinned(case):
    obs = generate_obligations(typecheck(parse(WP_PATHS[case])), "m")
    got = [(ob.id, expr_to_str(ob.goal), prove_internal(ob).status)
           for ob in obs]
    assert got == WP_PATHS_EXPECTED[case]


# calls in a while body and in a do body, both under conditions with
# array-read guards, a call before each loop, and a do invariant that reads
# LoopEntry: the sides' ids number the call-result symbols (inc@rN), so
# this pins the order in which the loop rule draws them. A variant's
# decrease claim comes from the body's one pass, so it names the call
# results that the preservation claim names
LOOP_NUMBERING = """
/*@ requires n >= 0;
  @ ensures \\result == n + 1;
  @*/
int inc(int n) {
    return n + 1;
}

/*@ requires 1 <= n && n <= \\length(a);
  @ ensures true;
  @*/
void m(int[] a, int n) {
    int i = inc(0);
    int j = 0;
    /*@ loop_invariant 0 <= j && j <= n;
      @ loop_variant n - j;
      @*/
    while (j < n && a[j] > 0) {
        j = inc(j);
    }
    int k = inc(j);
    /*@ loop_invariant 1 <= i && i <= n && Permut{LoopEntry,Here}(a, 0, n - 1);
      @ loop_variant n - i;
      @*/
    do {
        a[0] = a[0];
        i = inc(i);
    } while (i < n && a[i] > 0);
}
"""

LOOP_NUMBERING_EXPECTED = [
    ("m:000:invariant-init",
     "loop invariant initially holds [line 9]",
     "inc@r26 == 0 + 1 ==> 0 <= 0 && 0 <= n"),
    ("m:001:call-requires",
     "callee precondition holds (requires of inc) [line 27]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> inc@r26 >= 0"),
    ("m:002:bounds-guard",
     "array access within bounds (index 0 within a) [line 26]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 0 >= 0 && 0 < \\length(a)"),
    ("m:003:bounds-guard",
     "array access within bounds (store index 0 within a) [line 26]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 0 >= 0 && 0 < \\length(a)"),
    ("m:004:bounds-guard",
     "array access within bounds (index i within a) [line 28]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 1 <= i@L1 && i@L1 <= n"
     " && \\permut(a@L1, a@L1, 0, n - 1) ==> i@L1 < n ==> i@L1 >= 0"
     " && i@L1 < \\length(a@L1)"),
    ("m:005:invariant-preserve",
     "loop invariant preserved [line 22]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 1 <= i@L1 && i@L1 <= n"
     " && \\permut(a@L1, a@L1, 0, n - 1) && (i@L1 < n && a@L1[i@L1] > 0)"
     " ==> inc@r1 == i@L1 + 1 ==> 1 <= inc@r1 && inc@r1 <= n"
     " && \\permut(a@L1, \\store(a@L1, 0, a@L1[0]), 0, n - 1)"),
    ("m:006:call-requires",
     "callee precondition holds (requires of inc) [line 27]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 1 <= i@L1 && i@L1 <= n"
     " && \\permut(a@L1, a@L1, 0, n - 1) && (i@L1 < n && a@L1[i@L1] > 0)"
     " ==> i@L1 >= 0"),
    ("m:007:bounds-guard",
     "array access within bounds (index 0 within a) [line 26]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 1 <= i@L1 && i@L1 <= n"
     " && \\permut(a@L1, a@L1, 0, n - 1) && (i@L1 < n && a@L1[i@L1] > 0)"
     " ==> 0 >= 0 && 0 < \\length(a@L1)"),
    ("m:008:bounds-guard",
     "array access within bounds (store index 0 within a) [line 26]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 1 <= i@L1 && i@L1 <= n"
     " && \\permut(a@L1, a@L1, 0, n - 1) && (i@L1 < n && a@L1[i@L1] > 0)"
     " ==> 0 >= 0 && 0 < \\length(a@L1)"),
    ("m:009:variant-nonneg",
     "loop variant non-negative [line 22]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 1 <= i@L1 && i@L1 <= n"
     " && \\permut(a@L1, a@L1, 0, n - 1) && (i@L1 < n && a@L1[i@L1] > 0)"
     " ==> n - i@L1 >= 0"),
    ("m:010:variant-decrease",
     "loop variant decreases [line 22]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 1 <= i@L1 && i@L1 <= n"
     " && \\permut(a@L1, a@L1, 0, n - 1) && (i@L1 < n && a@L1[i@L1] > 0)"
     " ==> inc@r1 == i@L1 + 1 ==> n - inc@r1 < n - i@L1"),
    ("m:011:ensures",
     "postcondition holds (loop exit) [line 22]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> 1 <= i@L1 && i@L1 <= n"
     " && \\permut(a@L1, a@L1, 0, n - 1) && !(i@L1 < n && a@L1[i@L1] > 0)"
     " ==> true"),
    ("m:012:call-requires",
     "callee precondition holds (requires of inc) [line 21]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> j@L0 >= 0"),
    ("m:013:bounds-guard",
     "array access within bounds (index j within a) [line 18]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n ==> j@L0 < n ==> j@L0 >= 0"
     " && j@L0 < \\length(a)"),
    ("m:014:invariant-preserve",
     "loop invariant preserved [line 15]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && (j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r20 == j@L0 + 1 ==> 0 <= inc@r20"
     " && inc@r20 <= n"),
    ("m:015:call-requires",
     "callee precondition holds (requires of inc) [line 19]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && (j@L0 < n"
     " && a[j@L0] > 0) ==> j@L0 >= 0"),
    ("m:016:variant-nonneg",
     "loop variant non-negative [line 15]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && (j@L0 < n"
     " && a[j@L0] > 0) ==> n - j@L0 >= 0"),
    ("m:017:variant-decrease",
     "loop variant decreases [line 15]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && (j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r20 == j@L0 + 1 ==> n - inc@r20 < n - j@L0"),
    ("m:018:invariant-init",
     "loop invariant initially holds (loop exit) [line 15]",
     "inc@r26 == 0 + 1 ==> 0 <= j@L0 && j@L0 <= n && !(j@L0 < n"
     " && a[j@L0] > 0) ==> inc@r17 == j@L0 + 1 ==> inc@r5 == inc@r26 + 1"
     " ==> 1 <= inc@r5 && inc@r5 <= n"
     " && \\permut(\\store(a, 0, a[0]), \\store(a, 0, a[0]), 0, n - 1)"),
    ("m:019:call-requires",
     "callee precondition holds (requires of inc) [line 13]",
     "0 >= 0"),
]


def test_loop_rule_draws_ids_in_a_fixed_order():
    obs = generate_obligations(typecheck(parse(LOOP_NUMBERING)), "m")
    assert [(ob.id, ob.name, expr_to_str(ob.goal)) for ob in obs] == \
        LOOP_NUMBERING_EXPECTED
    assert all([expr_to_str(h) for h in ob.hypotheses] ==
               ["1 <= n && n <= \\length(a)"] for ob in obs)


def _tree_sorts(formulas) -> list:
    """(name, sort) of the free symbols of the formulas, read by a walk of
    the tree: a name keeps its first position and takes its last sort."""
    sorts = {}

    def visit(f, bound):
        if isinstance(f, S.Var):
            if f.name not in bound and f.ty is not None:
                sorts[f.name] = f.ty
        elif isinstance(f, S.FreshVar):
            sorts[f.name] = f.ty
        elif isinstance(f, S.Forall):
            visit(f.body, bound | {n for n, _ in f.binders})
        else:
            for child in S.children(f):
                visit(child, bound)

    for f in formulas:
        visit(f, frozenset())
    return list(sorts.items())


def test_var_sorts_are_those_of_a_walk_of_the_tree():
    for entry in corpus.corpus_sources():
        for ob in generate_obligations(corpus.unit(entry.name)):
            assert list(ob.var_sorts.items()) == _tree_sorts(
                [ob.goal, *ob.hypotheses]), ob.id
    # one subterm object under \forall x and outside it, in either order,
    # and one name of two sorts; the memo is shared by every call
    x, y, z = (S.Var(name=n, ty=S.REAL) for n in "xyz")
    y_int = S.Var(name="y", ty=S.INT)
    shared = S.Binary(op=">", left=S.Binary(op="+", left=x, right=y, ty=S.REAL),
                      right=z, ty=S.BOOL)
    quantified = S.Forall(binders=[("x", S.REAL)], body=shared, ty=S.BOOL)
    other = S.Binary(op="==", left=y_int, right=y_int, ty=S.BOOL)
    memo = S.Memo()
    for goal, hyps in [(S.conj([quantified, other, shared]), ()),
                       (S.conj([shared, quantified]), (other,)),
                       (quantified, (shared,)), (other, (quantified, shared))]:
        sorts, _, _ = vcgen._closure_info(goal, hyps, memo)
        assert list(sorts.items()) == _tree_sorts([goal, *hyps])
    assert list(sorts.items()) == [("y", S.REAL), ("z", S.REAL), ("x", S.REAL)]
