import gc
import math
import os
import random
import time
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from miniwhy import corpus, prover
from miniwhy import syntax as S
from miniwhy.errors import EvalError, ExecutionFault
from miniwhy.interp import eval_formula, exec_method
from miniwhy.parser import parse
from miniwhy.linear import Lin
from miniwhy.prover import Constraint, _eliminate, _witness, prove_internal
from miniwhy.typecheck import typecheck
from miniwhy.vcgen import (Obligation, Origin, generate_obligations,
                           instantiate_on_trace)

from helpers import FormulaGen, typed_formula


def mk(goal, hyps=(), sorts=None, fresh=False, tables=None):
    return Obligation(id="t:000:assert", name="test",
                      origin=Origin("m", 1, "assert"),
                      hypotheses=list(hyps),
                      hyp_sources=["requires"] * len(hyps),
                      goal=goal, var_sorts=dict(sorts or {}),
                      loop_ids=(0,) if fresh else (), tables=tables)


def test_both_division_lemmas_prove_without_hints(lemmas_unit):
    obs = generate_obligations(lemmas_unit)
    for ob in obs:
        st = prove_internal(ob)
        assert st.proved, (ob.id, st.reason)
        assert any("division-sign" in r for r in st.rule_trace)


def test_linear_validity():
    f = typed_formula("x > 0 && y > 0 ==> x + y > 0", {"x": S.REAL, "y": S.REAL})
    st = prove_internal(mk(f, sorts={"x": S.REAL, "y": S.REAL}))
    assert st.proved


def test_newton_preservation_stays_unknown(sqrt_unit):
    obs = generate_obligations(sqrt_unit, "sqrt_newton")
    preserve = next(ob for ob in obs if ob.kind == "invariant-preserve")
    st = prove_internal(preserve)
    assert st.status == "unknown"
    assert "nonlinear" in st.reason


def test_refutation_carries_a_verified_counterexample():
    f = typed_formula("x > 1.0", {"x": S.REAL})
    st = prove_internal(mk(f, sorts={"x": S.REAL}))
    assert st.status == "refuted"
    cex = st.counterexample
    assert cex and not eval_formula(f, {"Here": dict(cex), "Old": dict(cex)},
                                    "rational")


def test_hypotheses_condition_refutation():
    hyp = typed_formula("x > 5.0", {"x": S.REAL})
    goal = typed_formula("x > 1.0", {"x": S.REAL})
    st = prove_internal(mk(goal, hyps=[hyp], sorts={"x": S.REAL}))
    assert st.proved


def test_hypotheses_without_sources_condition_refutation():
    # the prover drops the quantified hypothesis and finds x = 2, which
    # breaks it: a hypothesis with no source is not a lemma, so the
    # counterexample check must keep it
    X = {"x": S.REAL}
    hyp = typed_formula("\\forall integer k; 0 <= k && k < 1 ==> x > 5.0", X)
    ob = Obligation(id="t:000:assert", name="test",
                    origin=Origin("m", 1, "assert"), hypotheses=[hyp],
                    goal=typed_formula("x > 3.0", X), var_sorts=dict(X))
    st = prove_internal(ob)
    assert st.status == "unknown"
    assert st.reason == "candidate counterexample not confirmed"


def test_faulting_counterexample_gives_unknown():
    # the goal simplifies to false; its candidate x = 0 divides by zero
    unit = typecheck(parse("/*@ ensures (x / x) * 0.0 == 1.0; @*/\n"
                           "real f(real x) { return x; }\n"))
    [ob] = generate_obligations(unit)
    st = prove_internal(ob)
    assert st.status == "unknown"
    assert st.reason == "counterexample not checkable: division by zero at line 1"


def test_integer_goals_never_refuted():
    # valid over the integers, invalid over the rationals: must stay unknown
    k = {"k": S.INT}
    f = typed_formula("2 * k != 1", k)
    st = prove_internal(mk(f, sorts=k))
    assert st.status == "unknown"
    assert "integer" in st.reason or "incomplete" in st.reason


def test_havoc_obligations_never_refuted():
    f = typed_formula("x > 1.0", {"x": S.REAL})
    st = prove_internal(mk(f, sorts={"x": S.REAL}, fresh=True))
    assert st.status == "unknown"
    assert "havoc" in st.reason


def test_strict_cycle_detection():
    f = typed_formula("x < y && y < z ==> x < z",
                      {"x": S.REAL, "y": S.REAL, "z": S.REAL})
    st = prove_internal(mk(f, sorts={"x": S.REAL, "y": S.REAL, "z": S.REAL}))
    assert st.proved


def test_equality_reasoning():
    f = typed_formula("x == y + 1.0 && y == 2.0 ==> x == 3.0",
                      {"x": S.REAL, "y": S.REAL})
    st = prove_internal(mk(f, sorts={"x": S.REAL, "y": S.REAL}))
    assert st.proved


def test_no_corpus_obligation_is_refuted():
    for entry in corpus.corpus_sources():
        tu = corpus.unit(entry.name)
        for ob in generate_obligations(tu):
            st = prove_internal(ob)
            assert st.status != "refuted", (entry.name, ob.id, st.counterexample)


def _ground_env(rng, sorts):
    env = {}
    for name, ty in sorts.items():
        if ty == S.INT:
            env[name] = rng.randint(-20, 20)
        elif ty == S.REAL:
            env[name] = Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 4]))
        else:
            return None       # arrays: not a ground-samplable sort here
    return env


def test_proved_obligations_survive_random_ground_sampling():
    """No proved-internal obligation is falsified by 10^4 random assignments
    over its (scalar) free symbols."""
    rng = random.Random(99)
    proved = []
    for entry in corpus.corpus_sources():
        tu = corpus.unit(entry.name)
        for ob in generate_obligations(tu):
            if prove_internal(ob).proved:
                proved.append(ob)
    assert proved
    budget = 10_000
    per = max(1, budget // len(proved))
    tested = 0
    for ob in proved:
        hyps = [h for h, s in zip(ob.hypotheses, ob.hyp_sources) if s != "lemma"]
        test = ob.goal
        for h in reversed(hyps):
            test = S.Binary(op="==>", left=h, right=test, ty=S.BOOL)
        for _ in range(per):
            env = _ground_env(rng, ob.var_sorts)
            if env is None:
                break
            try:
                ok = eval_formula(test, {"Here": dict(env), "Old": dict(env)},
                                  "rational")
            except EvalError:
                break         # quantified or array-dependent: not samplable
            tested += 1
            assert ok, (ob.id, env)
    assert tested >= 1000


def test_proved_obligations_pass_trace_validation(sqrt_unit):
    obs = generate_obligations(sqrt_unit)
    out = exec_method(sqrt_unit, "sqrt", [Fraction(3, 2)], "rational", trace=True)
    assert out.status == "normal"
    rep = instantiate_on_trace(obs, out)
    verdicts = {r.id: r for r in rep.results}
    for ob in obs:
        if prove_internal(ob).proved:
            assert verdicts[ob.id].verdict in ("pass", "not-instantiable")
            assert verdicts[ob.id].verdict != "fail"


def test_resource_cap_reports_unknown():
    # 40 disjunctions distribute into 2^40 conjunctions: the cap must trip
    parts = " && ".join(f"(u > {k}.0 || v > {k}.0)" for k in range(40))
    f = typed_formula(f"{parts} ==> u + v > -1000.0", {"u": S.REAL, "v": S.REAL})
    st = prove_internal(mk(f, sorts={"u": S.REAL, "v": S.REAL}))
    assert st.status == "unknown"
    assert st.reason == "resource cap: DNF explosion"


def _bounded_x(k):
    """x > i for i < k and x < 1000 + i for i < k - 1 entail x > -1: the
    negated goal is a k-th upper bound, so eliminating x combines k * k
    pairs."""
    X = {"x": S.REAL}
    hyps = [typed_formula(f"x > {i}.0", X) for i in range(k)]
    hyps += [typed_formula(f"x < {1000 + i}.0", X) for i in range(k - 1)]
    return prove_internal(mk(typed_formula("x > -1.0", X), hyps, X))


def test_fourier_motzkin_cap():
    # 64 * 64 combinations pass MAX_CONSTRAINTS (4000), 63 * 63 do not
    st = _bounded_x(64)
    assert st.status == "unknown"
    assert st.reason == "resource cap: Fourier-Motzkin blowup"
    assert _bounded_x(63).proved


def test_disequality_splits_stop_at_the_disjunct_cap():
    # each x != 0 hypothesis splits the negated goal in two; 14 of them
    # would mean 2**14 Fourier-Motzkin runs
    sorts = {f"x{i}": S.REAL for i in range(14)}
    sorts["y"] = S.REAL
    hyps = [typed_formula(f"x{i} != 0.0", sorts) for i in range(14)]
    hyps.append(typed_formula("y > 0.0", sorts))
    start = time.perf_counter()
    st = prove_internal(mk(typed_formula("y >= 0.0", sorts), hyps, sorts))
    assert time.perf_counter() - start < 0.5
    assert st.status == "unknown"
    assert st.reason == "resource cap: disequality split (14 literals)"
    # under the cap the split still proves
    st = prove_internal(mk(typed_formula("y >= 0.0", sorts), hyps[-4:], sorts))
    assert st.proved


XYZ = {"x": S.REAL, "y": S.REAL, "z": S.REAL}


def test_disequality_split_leaves_keep_their_order():
    # two != hypotheses split the one disjunct of each goal conjunct into
    # four leaves: x < 0 before x > 0, and x's split before z's
    hyps = [typed_formula(t, XYZ) for t in ("x != 0.0", "z != 0.0", "y > 0.0")]
    goal = typed_formula("(x / y > 0.0 || (0.0 - x) / y > 0.0) && "
                         "(z / y > 0.0 || (0.0 - z) / y > 0.0)", XYZ)
    st = prove_internal(mk(goal, hyps, XYZ))
    assert st.rule_trace == [
        "simplify",
        "negate/nnf/dnf: 2 disjunct(s)",
        "division-sign: |-x / y| > 0",
        "division-sign: |-x / y| > 0",
        "division-sign: |x / y| > 0",
        "division-sign: |x / y| > 0",
        "division-sign: |-z / y| > 0",
        "division-sign: |z / y| > 0",
        "division-sign: |-z / y| > 0",
        "division-sign: |z / y| > 0",
        "fourier-motzkin: every disjunct closed",
    ]


XYK = {"x": S.REAL, "y": S.REAL, "k": S.INT}


@pytest.mark.parametrize("text, int_keys, opaque, divisions", [
    # the outer quotient cancels between the sides and is still carried,
    # after the quotients inside it
    ("(x / y) / (y / x) + 1.0 != (x / y) / (y / x)", set(), True,
     ["|x / y|", "|y / x|", "|x / y / (y / x)|"]),
    ("k * k != k", {"k", "|k * k|"}, True, []),
    ("x != y", set(), False, []),
])
def test_both_sides_of_a_split_carry_what_their_comparison_abstracts(
        text, int_keys, opaque, divisions):
    cmp, forms = typed_formula(text, XYK), S.Memo()
    lt, gt = prover._constraint("<", cmp, forms), prover._constraint(">", cmp, forms)
    assert lt.lin.neg_key() == gt.lin.key()
    for c in (lt, gt):
        assert (c.int_keys, c.opaque) == (int_keys, opaque)
        assert [k for k, _, _ in c.divisions] == divisions
    assert ([(n.key(), d.key()) for _, n, d in lt.divisions]
            == [(n.key(), d.key()) for _, n, d in gt.divisions])
    assert prover._constraint("<", cmp, forms) is lt     # once per op and table


PKX = {"p": S.BOOL, "k": S.INT, "x": S.REAL}


@pytest.mark.parametrize("text, why", [
    ("p ==> k > 0", "nonlinear terms abstracted"),
    ("p ==> x > 0.0", "nonlinear terms abstracted"),
    ("k > 0 ==> k > 1", "integer-sorted symbols (rational decision is incomplete)"),
    ("(p && x > 0.0) ==> !p || x > 1.0", "nonlinear terms abstracted"),
])
def test_a_boolean_atom_or_an_integer_key_leaves_a_satisfiable_leaf_unknown(text, why):
    # a boolean atom in the conjunct counts as abstracted even when the
    # leaf's constraints carry nothing (p ==> x > 0.0)
    st = prove_internal(mk(typed_formula(text, PKX), sorts=PKX))
    assert st.status == "unknown"
    assert st.reason == f"satisfiable abstraction: {why}"


def test_a_boolean_atom_beside_its_negation_closes_the_disjunct():
    st = prove_internal(mk(typed_formula("(p && !p) ==> k > 1", PKX), sorts=PKX))
    assert st.proved
    assert st.rule_trace == ["simplify", "negate/nnf/dnf: 1 disjunct(s)",
                             "fourier-motzkin: every disjunct closed"]


@pytest.mark.parametrize("hyp, goal, proved", [
    ("x > 0 && y > 0", "x / y > 0", True),
    ("2 * x > 0 && 3 * y > 0", "x / y > 0", True),
    ("x - z > 0 && y > 0", "(x - z) / y > 0", True),
    ("x == 0 && y < 0", "x / y == 0", True),
    ("-2 * x == 0 && y > 0", "x / y == 0", True),
    ("x == 0 && y != 0", "x / y == 0", True),
    ("x > 0 && y < 0", "x / y > 0", False),
    ("x >= 0 && y > 0", "x / y > 0", False),
    ("x < 0 && y < 0", "x / y > 0", False),
    ("x > 0 && y > 0", "(x / y) / (y / x) > 0", True),
])
def test_division_sign_rules(hyp, goal, proved):
    ob = mk(typed_formula(goal, XYZ), hyps=[typed_formula(hyp, XYZ)], sorts=XYZ)
    st = prove_internal(ob)
    if proved:
        assert st.proved, st.reason
        assert any(r.startswith("division-sign: ") for r in st.rule_trace)
    else:
        assert st.status == "unknown", st.status


@pytest.mark.parametrize("hyp, proved", [
    ("x < y", False),
    ("x != y", False),
    ("y < x", False),
    ("x != 0.0", True),
    ("0.0 < x", True),
    ("x > 0.0", True),
])
def test_zero_numerator_folds_only_under_a_nonzero_divisor(hyp, proved):
    # x < y says nothing of x: at x = 0, y = 1 the quotient 0.0 / 0.0 is
    # unconstrained
    XY = {"x": S.REAL, "y": S.REAL}
    st = prove_internal(mk(typed_formula(f"{hyp} ==> 0.0 / x == 0.0", XY), sorts=XY))
    assert st.status == ("proved-internal" if proved else "unknown"), st.detail
    assert (st.rule_trace[-1] == "closed by simplification") == proved


def _check_verdicts_against_evaluation(division):
    """Count the verdicts on FormulaGen seeds 0-999 over mixed int/real and
    over real-only symbols, asserting that a proved formula holds on
    sampled states and a refuted one fails on its counterexample. States
    whose evaluation divides by zero are skipped."""
    counts = {"proved-internal": 0, "refuted": 0, "unknown": 0}
    for reals_only in (False, True):
        for seed in range(1000):
            gen = FormulaGen(seed, reals_only, division)
            text = gen.formula()
            try:
                f = typed_formula(text, dict(gen.vars))
            except AssertionError:
                continue
            st = prove_internal(mk(f, sorts=gen.vars))
            counts[st.status] += 1
            if st.proved:
                states = [gen.state() for _ in range(5)]
            elif st.status == "refuted":
                states = [st.counterexample]
            else:
                continue
            for sigma in states:
                try:
                    holds = eval_formula(f, {"Here": dict(sigma), "Old": dict(sigma)},
                                         "rational")
                except ExecutionFault:
                    assert division, (reals_only, seed, text, sigma)
                    continue
                assert holds == st.proved, (reals_only, seed, text, sigma)
    return counts


def test_verdicts_agree_with_evaluation_on_random_formulas():
    counts = _check_verdicts_against_evaluation(division=False)
    assert counts["proved-internal"] >= 100 and counts["refuted"] >= 100, counts


def test_verdicts_agree_with_evaluation_on_random_formulas_with_division():
    counts = _check_verdicts_against_evaluation(division=True)
    assert counts["proved-internal"] >= 100 and counts["refuted"] >= 100, counts


def _formulagen_verdict_lines():
    """One line per FormulaGen formula of seeds 0-299 in each of the four
    sets: set, seed, status and the report's detail."""
    for division in (False, True):
        for reals_only in (False, True):
            name = ("real" if reals_only else "mixed") + ("/div" if division else "")
            for seed in range(300):
                gen = FormulaGen(seed, reals_only, division)
                f = typed_formula(gen.formula(), dict(gen.vars))
                st = prove_internal(mk(f, sorts=gen.vars))
                yield f"{name}\t{seed}\t{st.status}\t{st.detail}\n"


def test_random_formula_verdicts_match_golden():
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "formulagen.verdicts.txt")
    with open(path, encoding="utf-8") as fh:
        assert "".join(_formulagen_verdict_lines()) == fh.read()


@pytest.mark.parametrize("entry", [e.name for e in corpus.corpus_sources()])
def test_corpus_verdicts_match_goldens(entry):
    """One line per obligation: id, status and the report's detail."""
    obs = generate_obligations(corpus.unit(entry))
    lines = []
    for ob in obs:
        st = prove_internal(ob)
        lines.append(f"{ob.id}\t{st.status}\t{st.detail}\n")
    path = os.path.join(os.path.dirname(__file__), "golden",
                        f"{entry}.verdicts.txt")
    with open(path, encoding="utf-8") as fh:
        assert "".join(lines) == fh.read()


def test_a_repeated_obligation_takes_a_copy_of_the_first_status(monkeypatch,
                                                                 quickselect_unit):
    """Quickselect lists 51 obligations, 12 of them repeats of an earlier
    one's goal object and hypotheses (a variant's decrease listing repeats
    claims of the preservation listing): each is proved once, and every
    verdict is the golden's."""
    proved = []
    prove = prover._prove
    monkeypatch.setattr(prover, "_prove", lambda ob: proved.append(ob) or prove(ob))
    obs = generate_obligations(quickselect_unit).obligations
    statuses = [prove_internal(ob) for ob in obs]
    assert len(obs) == 51 and len(proved) <= 39
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "find_nth_lowest_number.verdicts.txt")
    with open(path, encoding="utf-8") as fh:
        assert "".join(f"{ob.id}\t{st.status}\t{st.detail}\n"
                       for ob, st in zip(obs, statuses)) == fh.read()
    repeats = [i for i, ob in enumerate(obs) if all(ob is not p for p in proved)]
    assert len(repeats) == 12
    firsts = [next(j for j, ob in enumerate(obs) if ob.goal is obs[i].goal)
              for i in repeats]
    for i, first in zip(repeats, firsts):
        assert obs[first].hypotheses is obs[i].hypotheses
        assert statuses[i] == statuses[first] and statuses[i] is not statuses[first]
    # copies: editing one status leaves the others and the table alone
    for i, first in zip(repeats, firsts):
        statuses[i].rule_trace.append("edited")
        statuses[first].rule_trace.clear()
        assert statuses[i].rule_trace[-1] == "edited"
        assert prove_internal(obs[i]) == prove_internal(obs[first]) != statuses[i]
        assert prove_internal(obs[i]).rule_trace
    assert len(proved) <= 39


def test_a_copy_with_other_loops_or_sorts_on_a_shared_table_is_proved_afresh(monkeypatch):
    """The repeat key names the goal, hypotheses and sources; a copy on the
    same table whose havoc loops or sorts differ gets the verdict it gets
    on tables of its own, and the first obligation keeps its own."""
    f = typed_formula("x > 0.0", {"x": S.REAL})
    ob = mk(f, sorts={"x": S.REAL})
    assert prove_internal(ob).status == "refuted"
    tables = ob._forms, ob._renders
    copies = [replace(ob, loop_ids=(0,), tables=tables),
              replace(ob, var_sorts={"x": S.INT}, tables=tables),
              replace(ob, var_sorts={"x": S.REAL, "y": S.INT}, tables=tables)]
    for copy in copies:
        alone = prove_internal(replace(copy, tables=None))
        assert alone.status == "unknown"
        assert prove_internal(copy) == alone
    assert "havoc" in prove_internal(copies[0]).reason
    assert prove_internal(ob).status == "refuted"
    # an equal copy is a repeat and is not proved again
    proved = []
    prove = prover._prove
    monkeypatch.setattr(prover, "_prove", lambda o: proved.append(o) or prove(o))
    again = replace(ob, var_sorts={"x": S.REAL}, tables=tables)
    assert prove_internal(again).status == "refuted" and not proved


# ---------------------------------------------------------------------------
# Fourier-Motzkin on seeded random systems

def _fm_system(seed):
    """A random system of 1-8 constraints over 1-6 of the keys a-f: integer
    and fractional coefficients and constants, `<`, `<=` and `==` (whose
    least key may have a negative or fractional coefficient)."""
    rng = random.Random(seed)
    keys = rng.sample("abcdef", rng.randint(1, 6))

    def number(nonzero):
        while True:
            if rng.random() < 0.6:
                v = Fraction(rng.randint(-4, 4))
            else:
                v = Fraction(rng.randint(-9, 9), rng.randint(2, 5))
            if v or not nonzero:
                return v

    system = []
    for _ in range(rng.randint(1, 8)):
        mentioned = rng.sample(keys, rng.randint(1, min(3, len(keys))))
        lin = Lin(number(False), {k: number(True) for k in mentioned})
        system.append((lin, rng.choice(["<", "<=", "<=", "=="])))
    return system


def _fm_witness_lines():
    """One line per system of seeds 0-1999: seed, then `None` or the
    witness sorted by key. Each witness is checked against the system.
    Scaling a form by a positive factor moves no bound, so the primitive
    forms given to _eliminate have the witnesses of the unscaled ones."""
    for seed in range(2000):
        system = _fm_system(seed)
        eliminated = _eliminate([Constraint(lin.primitive(), op)
                                 for lin, op in system])
        if eliminated is None:
            yield f"{seed}\tNone\n"
            continue
        witness = _witness(*eliminated)
        for lin, op in system:
            value = lin.const + sum(v * witness.get(k, 0)
                                    for k, v in lin.coeffs.items())
            assert S.COMPARE[op](value, 0), (seed, lin.key(), op, witness)
        shown = " ".join(f"{k}={witness[k]}" for k in sorted(witness))
        yield f"{seed}\t{shown}\n"


def _is_primitive(lin):
    values = [lin.const, *lin.coeffs.values()]
    return all(type(v) is int for v in values) and math.gcd(*values) in (0, 1)


def test_fm_runs_over_primitive_integer_forms(monkeypatch, quickselect_unit):
    # every constraint reaching _eliminate, and every one it derives, holds
    # coprime ints: no Fraction arithmetic in the elimination loops
    seen = []
    eliminate, cancel = prover._eliminate, prover._cancel

    def spy_eliminate(constraints):
        seen.extend(c.lin for c in constraints)
        return eliminate(constraints)

    def spy_cancel(lin, by, key):
        seen.append(cancel(lin, by, key))
        return seen[-1]

    monkeypatch.setattr(prover, "_eliminate", spy_eliminate)
    monkeypatch.setattr(prover, "_cancel", spy_cancel)
    for ob in generate_obligations(quickselect_unit):
        prove_internal(ob)
    assert len(seen) > 1000
    assert all(_is_primitive(lin) for lin in seen)


def test_fm_witnesses_match_golden():
    lines = list(_fm_witness_lines())
    unsat = sum(line.endswith("\tNone\n") for line in lines)
    assert 200 <= unsat <= len(lines) - 200, unsat
    path = os.path.join(os.path.dirname(__file__), "golden", "fm.witnesses.txt")
    with open(path, encoding="utf-8") as fh:
        assert "".join(lines) == fh.read()


# ---------------------------------------------------------------------------
# a strict bound beside its complement closes a leaf before elimination

_LIN = Lin(3, {"x": 1, "y": -2})          # x - 2y + 3, primitive


def _without_pair_check(monkeypatch):
    monkeypatch.setattr(prover, "_complementary", lambda constraints: False)


@pytest.mark.parametrize("first, second", [
    ((_LIN, "<"), (_LIN.scale(-1), "<")),
    ((_LIN, "<"), (_LIN.scale(-1), "<=")),
    ((_LIN, "<"), (_LIN.scale(-1), "==")),
    ((_LIN, "=="), (_LIN, "<")),
])
def test_a_strict_bound_beside_its_complement_closes_the_leaf(first, second):
    for pair in ((first, second), (second, first)):
        leaf = [Constraint(lin, op) for lin, op in pair]
        assert prover._complementary(leaf)
        assert _eliminate(leaf) is None


@pytest.mark.parametrize("first, second", [
    ((_LIN, "<="), (_LIN.scale(-1), "<=")),
    ((_LIN, "=="), (_LIN.scale(-1), "==")),
    ((_LIN, "<"), (_LIN, "<=")),
])
def test_a_satisfiable_pair_gets_the_witness_of_elimination(monkeypatch, first, second):
    for pair in ((first, second), (second, first)):
        leaf = [Constraint(lin, op) for lin, op in pair]
        assert not prover._complementary(leaf)
        got = _witness(*_eliminate(leaf))
        with monkeypatch.context() as m:
            _without_pair_check(m)
            assert got == _witness(*_eliminate(leaf))


@pytest.fixture(scope="module")
def corpus_leaves():
    """Every constraint list that proving the corpus gives `_eliminate`."""
    leaves = []
    eliminate = prover._eliminate

    def spy(constraints):
        leaves.append(list(constraints))
        return eliminate(constraints)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(prover, "_eliminate", spy)
        for entry in corpus.corpus_sources():
            for ob in generate_obligations(corpus.unit(entry.name)):
                prove_internal(ob)
    return leaves


def test_elimination_refutes_every_leaf_the_pair_check_closes(monkeypatch,
                                                               corpus_leaves):
    systems = [[Constraint(lin.primitive(), op) for lin, op in _fm_system(seed)]
               for seed in range(2000)]
    closed = [leaf for leaf in systems + corpus_leaves
              if prover._complementary(leaf)]
    assert closed
    _without_pair_check(monkeypatch)
    assert all(_eliminate(leaf) is None for leaf in closed)


def test_the_pair_check_closes_most_corpus_leaves(corpus_leaves):
    # 267 of 351 leaves, 313 of them unsatisfiable, when it was added
    assert sum(map(prover._complementary, corpus_leaves)) >= 250


def test_a_leaf_with_a_pair_closes_past_the_fourier_motzkin_cap(monkeypatch):
    # _bounded_x(64)'s core passes MAX_CONSTRAINTS; z < 0 and z >= 0 close
    # the leaf before elimination starts
    XZ = {"x": S.REAL, "z": S.REAL}
    hyps = [typed_formula(f"x > {i}.0", XZ) for i in range(64)]
    hyps += [typed_formula(f"x < {1000 + i}.0", XZ) for i in range(63)]
    hyps += [typed_formula("z < 0.0", XZ), typed_formula("z >= 0.0", XZ)]
    ob = mk(typed_formula("x > -1.0", XZ), hyps, XZ)
    st = prove_internal(ob)
    assert st.proved
    assert st.rule_trace[-1] == "fourier-motzkin: every disjunct closed"
    _without_pair_check(monkeypatch)
    # ob keeps its status; a copy with a table of its own proves afresh
    st = prove_internal(_alone(ob))
    assert st.reason == "resource cap: Fourier-Motzkin blowup"


def test_witness_is_built_only_for_a_refutation_attempt(monkeypatch):
    # per obligation, the calls are none, a refutation of a formula that
    # simplified to false, or one witness and then its refutation attempt
    calls = []
    witness, try_refute = prover._witness, prover._try_refute

    def spy_witness(stack, solved):
        calls.append("witness")
        return witness(stack, solved)

    def spy_try_refute(ob, w, trace):
        calls.append("refute" if trace[-1] != "simplified to false"
                     else "refute-false")
        return try_refute(ob, w, trace)

    monkeypatch.setattr(prover, "_witness", spy_witness)
    monkeypatch.setattr(prover, "_try_refute", spy_try_refute)
    allowed = ([], ["refute-false"], ["witness", "refute"])

    satisfiable = 0
    for entry in corpus.corpus_sources():
        for ob in generate_obligations(corpus.unit(entry.name)):
            calls.clear()
            st = prove_internal(ob)
            satisfiable += st.reason.startswith("satisfiable abstraction")
            assert calls == [], ob.id
    # each of these once built a witness that nothing read
    assert satisfiable == 38

    attempts = 0
    for seed in range(300):
        gen = FormulaGen(seed, reals_only=True)
        calls.clear()
        prove_internal(mk(typed_formula(gen.formula(), dict(gen.vars)),
                          sorts=gen.vars))
        assert calls in allowed, (seed, calls)
        attempts += calls == ["witness", "refute"]
    assert attempts >= 100, attempts


# ---------------------------------------------------------------------------
# the prover's table (forms and simplify memo), shared by one set's
# obligations

def _verdict(ob):
    st = prove_internal(ob)
    return st.status, st.reason, st.rule_trace, st.counterexample


def _alone(ob):
    """A copy of ob with a table of its own."""
    return replace(ob)


def _formulagen_obligations(reals_only, division):
    """The FormulaGen formulas of seeds 0-299 as goals, each alone and each
    under the previous one as a hypothesis, so that one node object is
    simplified under different nonzero facts."""
    obs, prev = [], None
    for seed in range(300):
        gen = FormulaGen(seed, reals_only, division)
        f = typed_formula(gen.formula(), dict(gen.vars))
        obs.append(mk(f, sorts=gen.vars))
        if prev is not None:
            obs.append(mk(f, hyps=[prev], sorts=gen.vars))
        prev = f
    return obs


def _ordered(obs, order):
    if order == "forward":
        return list(obs)
    if order == "reverse":
        return obs[::-1]
    return random.Random(23).sample(obs, len(obs))


def test_a_shared_table_gives_the_verdicts_of_a_table_per_obligation():
    """In forward, reverse and shuffled order, every corpus obligation and
    every FormulaGen obligation above gets the status, reason, rule trace
    and counterexample that a copy with a table of its own gets."""
    orders = ("forward", "reverse", "shuffled")
    for entry in corpus.corpus_sources():
        want = None
        for order in orders:
            obset = generate_obligations(corpus.unit(entry.name))
            assert all(ob._forms is obset._forms for ob in obset)
            if want is None:
                want = {ob.id: _verdict(_alone(ob)) for ob in obset}
            got = {ob.id: _verdict(ob) for ob in _ordered(obset.obligations, order)}
            assert got == want, (entry.name, order)
    for division in (False, True):
        for reals_only in (False, True):
            obs = _formulagen_obligations(reals_only, division)
            want = [_verdict(_alone(ob)) for ob in obs]
            for order in orders:
                tables = S.Memo(), S.Memo()
                shared = [replace(ob, tables=tables) for ob in obs]
                got = {id(ob): _verdict(ob) for ob in _ordered(shared, order)}
                assert [got[id(ob)] for ob in shared] == want, (reals_only, division, order)


class _Probe:
    """An object that a weak reference can follow."""


def test_the_table_dies_with_its_set(quickselect_unit):
    obset = generate_obligations(quickselect_unit)
    statuses = [prove_internal(ob) for ob in obset]
    assert len(obset._forms) > len(obset)
    # a probe that only the table holds dies with it
    probe = _Probe()
    obset._forms.put(probe, True)
    held = weakref.ref(probe)
    obs = list(obset)
    del obset, obs, probe
    gc.collect()
    # the statuses outlive the set and hold none of the table
    assert held() is None and len(statuses) == 51


def test_an_edited_obligation_gets_its_new_verdict():
    """Edits of one obligation that shares its tables with another, each
    a replace copy on those tables: each verdict is that of a copy with
    tables of its own, never a stale one."""
    sorts = {"y": S.REAL}
    tables = S.Memo(), S.Memo()
    quotient = typed_formula("0.0 / y == 0.0", sorts)
    alone = mk(quotient, sorts=sorts, tables=tables)
    guarded = mk(typed_formula("y > 0.0 || y < 0.0", sorts),
                 hyps=[typed_formula("y != 0.0", sorts)], sorts=sorts, tables=tables)
    assert _verdict(alone)[0] == "unknown"
    assert _verdict(guarded)[0] == "proved-internal"
    # the goal that `alone` simplified under no facts, now under y != 0
    guarded = replace(guarded, goal=quotient, tables=tables)
    assert _verdict(guarded) == _verdict(_alone(guarded))
    assert _verdict(guarded)[2][-1] == "closed by simplification"
    alone = replace(alone, goal=typed_formula("y + 1.0 > y", sorts), tables=tables)
    assert _verdict(alone) == _verdict(_alone(alone))
    assert _verdict(alone)[0] == "proved-internal"
    alone = replace(alone, hypotheses=[typed_formula("y > 0.0", sorts)],
                    hyp_sources=["requires"], goal=quotient, tables=tables)
    assert _verdict(alone) == _verdict(_alone(alone))


def test_each_boolean_atom_is_printed_once_per_set(monkeypatch):
    """The prover keys a boolean atom by its text, kept in the set's table:
    over a set, no atom object is printed twice."""
    printed = []

    def counted(e):
        printed.append(e)
        return text(e)

    text = prover.expr_to_str
    monkeypatch.setattr(prover, "expr_to_str", counted)
    atoms = 0
    for entry in corpus.corpus_sources():
        printed.clear()
        obset = generate_obligations(corpus.unit(entry.name))
        for ob in obset:
            prove_internal(ob)
        assert len({id(e) for e in printed}) == len(printed), entry.name
        assert all(obset._forms.get(e, "atom") == text(e) for e in printed)
        atoms += len(printed)
    assert atoms == 9


def test_a_proved_obligation_copies_with_its_table(quickselect_unit):
    """copy.deepcopy of a proved obligation copies its table, whose linear
    forms are keyed by printed atoms, and keeps its verdict."""
    import copy
    obset = generate_obligations(quickselect_unit)
    ob = obset.by_id("find_nth_lowest_number:004:bounds-guard")
    status = _verdict(ob)
    twin = copy.deepcopy(ob)
    assert twin._forms is not ob._forms and len(twin._forms) == len(ob._forms)
    assert _verdict(twin) == status == _verdict(_alone(twin))
