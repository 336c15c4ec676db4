import builtins
import gc
import itertools
import json
import math
import operator
import os
import random
import re
from dataclasses import replace
from fractions import Fraction
from types import FunctionType

import pytest

from miniwhy import corpus
from miniwhy import syntax as S
from miniwhy import interp, vcgen
from miniwhy.errors import EvalError, ExecutionFault, MiniWhyError
from miniwhy.interp import CompiledMethod, eval_formula, exec_method
from miniwhy.parser import parse
from miniwhy.prover import prove_internal
from miniwhy.typecheck import CTX_ENSURES, typecheck
from miniwhy.values import value_repr

from helpers import FormulaGen, reference_eval, typed_formula

TRANSLATE = """
/*@ ensures x == \\old(x) + dx && y == \\old(y) + dy;
  @*/
void translate(real x, real y, real dx, real dy) {
    x = x + dx;
    y = y + dy;
}
"""


def oracle_halving_sqrt0():
    """Independent oracle for sqrt(0): halve t from 1.1 until t*t < 1.2E-7."""
    t = Fraction(11, 10)
    eps = Fraction(12, 10 ** 8)
    while t * t >= eps:
        t = t / 2
    return t


def test_translate_mutates_params_and_passes_ensures():
    tu = typecheck(parse(TRANSLATE))
    out = exec_method(tu, "translate", [1, 2, 3, 4], "rational",
                      collect_events=True, trace=True)
    assert out.status == "normal"
    exit_state = [s for s in out.trace if s.kind == "exit"][0].state
    assert exit_state["x"] == 4 and exit_state["y"] == 6
    assert [(e.kind, e.verdict) for e in out.report] == \
        [("requires", "pass"), ("ensures", "pass")]


def test_quickselect_spot_case(quickselect_unit):
    out = exec_method(quickselect_unit, "find_nth_lowest_number",
                      [[3, 1, 2], 3, 1], "rational", collect_events=True)
    assert out.status == "normal"
    assert out.return_value == 2
    kinds = {e.kind for e in out.report}
    assert {"requires", "ensures", "invariant-entry",
            "invariant-preserved"} <= kinds
    assert all(e.verdict == "pass" for e in out.report)


def test_sqrt_of_zero_is_exact_in_rational_mode(sqrt_unit):
    expected = oracle_halving_sqrt0()
    assert expected == Fraction(11, 40960)          # frozen from the oracle
    out = exec_method(sqrt_unit, "sqrt", [0], "rational")
    assert out.status == "normal"
    assert out.return_value == expected
    assert out.return_value == Fraction("2.685546875E-4".replace("E-4", "")) / 10**4


def test_stddev_negative_branch(stddev_unit):
    out = exec_method(stddev_unit, "calculate_std_dev", [-2, 3, 7], "rational",
                      collect_events=True)
    assert out.status == "normal"
    assert out.return_value == 0
    assert any(e.kind == "behaviour-ensures" and e.label == "negative_n"
               for e in out.report)


def test_stddev_spot_value_both_modes(stddev_unit):
    out = exec_method(stddev_unit, "calculate_std_dev", [3, 6, 14], "rational")
    r = Fraction(out.return_value)
    assert r * r >= 1 and r * r - 1 < Fraction(12, 10 ** 8)
    out64 = exec_method(stddev_unit, "calculate_std_dev", [3.0, 6.0, 14.0],
                        "binary64")
    assert abs(out64.return_value - 1.0) < 1e-6


def test_division_by_zero_is_a_runtime_error():
    tu = typecheck(parse("real f(real x) { return 1 / x; }"))
    out = exec_method(tu, "f", [0], "rational")
    assert out.status == "runtime-error"
    assert "division by zero" in out.error
    out64 = exec_method(tu, "f", [0.0], "binary64")
    assert out64.status == "runtime-error"


def test_index_out_of_bounds_is_a_runtime_error():
    tu = typecheck(parse("real f(real[] a, int i) { return a[i]; }"))
    out = exec_method(tu, "f", [[1, 2], 5], "rational")
    assert out.status == "runtime-error"
    assert "out of bounds" in out.error


def test_binary64_overflow_is_a_runtime_error():
    tu = typecheck(parse("real f(real x) { return x * x; }"))
    out = exec_method(tu, "f", [1e200], "binary64")
    assert out.status == "runtime-error"
    assert "overflow" in out.error
    assert exec_method(tu, "f", [10 ** 200], "rational").status == "normal"


@pytest.mark.parametrize("c, status, want, checks", [
    (642.093481, "contract-violation", ("invariant-preserved", 13), 11),
    (787487659.0, "normal", 28062.210515210667, 24),
    (1e308, "runtime-error", "real overflow in binary64 mode at line 13", 2),
])
def test_binary64_newton_outcomes_are_pinned(sqrt_unit, c, status, want, checks):
    """Three binary64 runs of the corpus Newton square root, with their
    verdict, value or fault, and checks passed. Annotations are evaluated
    in doubles here; reading them over the doubles' exact values, as
    planned, will move the first two on purpose: 642.093481's `t*t`
    rounds to exactly c, though exactly it exceeds c, and 787487659.0's
    `r*r - c` rounds below 1.2E-7, though exactly it is above."""
    out = exec_method(sqrt_unit, "sqrt", [c], "binary64")
    assert (out.status, out.checks_passed) == (status, checks)
    if status == "contract-violation":
        assert (out.report[-1].kind, out.report[-1].line) == want
    elif status == "normal":
        assert out.return_value == want
    else:
        assert out.error == want


def test_a_warm_exec_method_imports_nothing(sqrt_unit, monkeypatch):
    exec_method(sqrt_unit, "sqrt", [2.0], "binary64")
    imported = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    exec_method(sqrt_unit, "sqrt", [2.0], "binary64")
    monkeypatch.undo()
    assert imported == []


def test_requires_violation_reports_caller_error(sqrt_unit):
    out = exec_method(sqrt_unit, "sqrt", [-1], "rational", collect_events=True)
    assert out.status == "contract-violation"
    assert out.report[-1].kind == "requires"
    assert out.report[-1].verdict == "fail"
    assert out.report[-1].witness


def test_wrong_variant_raises_violation_not_divergence():
    src = ("void f(int n) {\n"
           "  /*@ loop_invariant n >= 0; loop_variant n; @*/\n"
           "  while (n > 0) { n = n; }\n"
           "}")
    # body keeps n unchanged: the variant check must fire on iteration one
    tu = typecheck(parse(src))
    out = exec_method(tu, "f", [5], "rational")
    assert out.status == "contract-violation"
    assert "variant-decrease" in out.error


def test_step_limit_converts_divergence():
    src = ("void f(int n) {\n"
           "  /*@ loop_invariant true; @*/\n"
           "  while (n > 0) { n = n + 0; }\n"
           "}")
    tu = typecheck(parse(src))
    out = exec_method(tu, "f", [1], "rational", max_loop_steps=1000)
    assert out.status == "runtime-error"
    assert "step limit" in out.error


def test_recursion_depth_limit():
    src = ("int f(int n) { int t = f(n + 1); return t; }")
    tu = typecheck(parse(src))
    out = exec_method(tu, "f", [0], "rational", max_depth=100)
    assert out.status == "runtime-error"
    assert "depth limit" in out.error


def test_recursion_deeper_than_the_python_stack_is_a_runtime_error():
    src = ("/*@ requires n >= 0; @*/\n"
           "int f(int n) { if (n == 0) { return 0; } int t = f(n - 1); return t + 1; }")
    tu = typecheck(parse(src))
    out = exec_method(tu, "f", [5_000], "rational")
    assert out.status == "runtime-error"
    assert out.error == "Python stack exhausted before the call depth limit 10000"


def test_a_type_error_inside_a_run_is_not_a_verdict(monkeypatch):
    # a typechecked unit cannot raise TypeError, so one that escapes the
    # interpreter is its own fault and must not read as `runtime-error`
    def broken(self, args, K):
        raise TypeError("interpreter fault")

    monkeypatch.setattr(CompiledMethod, "invoke", broken)
    tu = typecheck(parse("int f(int n) { return n; }"))
    with pytest.raises(TypeError, match="interpreter fault"):
        exec_method(tu, "f", [1], "rational")


LONG_REQUIRES = ("/*@ requires " + " && ".join(f"x > {-i}" for i in range(400))
                 + "; @*/\nint f(int x) { return x; }")
LONG_SUM_REQUIRES = ("/*@ requires " + " + ".join(["x"] * 400)
                     + " > 0; @*/\nint f(int x) { return x; }")


def test_a_unit_that_typechecks_but_is_too_deep_to_compile_is_an_error():
    # compiling takes about three frames per level of the left-nested sum,
    # checking fewer
    tu = typecheck(parse(LONG_SUM_REQUIRES))
    with pytest.raises(MiniWhyError, match="nesting too deep to compile"):
        exec_method(tu, "f", [1])
    f = tu.unit.methods[0].spec.requires
    with pytest.raises(EvalError, match="nesting too deep to compile"):
        eval_formula(f, {"Here": {"x": 1}})


def test_a_long_conjunction_compiles_to_one_flat_chain():
    # a chain of one connective takes one frame, whatever its length
    tu = typecheck(parse(LONG_REQUIRES))
    assert exec_method(tu, "f", [1]).status == "normal"
    out = exec_method(tu, "f", [-500], collect_events=True)
    assert out.status == "contract-violation" and out.report[-1].kind == "requires"
    f = tu.unit.methods[0].spec.requires
    assert eval_formula(f, {"Here": {"x": 1}})
    assert not eval_formula(f, {"Here": {"x": -399}})


def test_do_while_checks_invariant_after_first_body():
    # invariant is false on entry but true after one body execution: the
    # do-while head check happens only after the first body run
    src = ("void f(int n) {\n"
           "  /*@ loop_invariant n <= 0; loop_variant n + 10; @*/\n"
           "  do { n = n - 10; } while (n > 0);\n"
           "}")
    tu = typecheck(parse(src))
    out = exec_method(tu, "f", [5], "rational")
    assert out.status == "normal"


def test_determinism(quickselect_unit):
    a = exec_method(quickselect_unit, "find_nth_lowest_number",
                    [[2, 0, 3, 1], 4, 2], "rational", collect_events=True)
    b = exec_method(quickselect_unit, "find_nth_lowest_number",
                    [[2, 0, 3, 1], 4, 2], "rational", collect_events=True)
    assert a.status == b.status == "normal"
    assert a.return_value == b.return_value
    assert [(e.kind, e.verdict, e.line) for e in a.report] == \
        [(e.kind, e.verdict, e.line) for e in b.report]


def test_mode_agreement_on_integer_inputs(quickselect_unit):
    cases = [([3, 1, 2], 3, 1), ([5], 1, 0), ([2, 2, 2, 2], 4, 2),
             ([9, -4, 0, 7, 7, 1], 6, 3)]
    for buf, n_len, n in cases:
        ra = exec_method(quickselect_unit, "find_nth_lowest_number",
                         [list(buf), n_len, n], "rational")
        fl = exec_method(quickselect_unit, "find_nth_lowest_number",
                         [[float(x) for x in buf], n_len, n], "binary64")
        assert ra.status == fl.status == "normal"
        assert ra.return_value == fl.return_value


def test_arrays_passed_by_value(quickselect_unit):
    buf = [3, 1, 2]
    exec_method(quickselect_unit, "find_nth_lowest_number", [buf, 3, 1],
                "rational")
    assert buf == [3, 1, 2]


# ---------------------------------------------------------------------------
# eval_formula

def test_eval_permut_two_state():
    f = typed_formula("Permut{Old,Here}(buf, 0, 2)", {"buf": S.ARRAY_REAL})
    assert eval_formula(f, {"Old": {"buf": [1, 2, 3]}, "Here": {"buf": [3, 1, 2]}})
    assert not eval_formula(f, {"Old": {"buf": [1, 2, 3]},
                                "Here": {"buf": [3, 1, 1]}})


def test_eval_bounded_forall():
    f = typed_formula("\\forall integer k; 0 <= k <= 1 ==> buf[k] <= buf[2]",
                      {"buf": S.ARRAY_REAL})
    assert eval_formula(f, {"Here": {"buf": [1, 2, 5]}})
    assert not eval_formula(f, {"Here": {"buf": [7, 2, 5]}})


def test_eval_exact_rational_division():
    f = typed_formula("x / y > 0", {"x": S.REAL, "y": S.REAL})
    assert eval_formula(f, {"Here": {"x": 1, "y": 3}}, "rational")
    f3 = typed_formula("x / y == r", {"x": S.REAL, "y": S.REAL, "r": S.REAL})
    assert eval_formula(f3, {"Here": {"x": 1, "y": 3, "r": Fraction(1, 3)}},
                        "rational")


def test_eval_unbounded_quantifier_errors():
    from miniwhy.errors import EvalError
    f = typed_formula("\\forall integer k; buf[0] <= buf[0]",
                      {"buf": S.ARRAY_REAL})
    with pytest.raises(EvalError):
        eval_formula(f, {"Here": {"buf": [1]}})
    g = typed_formula("\\forall real x; x > 0 ==> x >= 0", {})
    with pytest.raises(EvalError):
        eval_formula(g, {"Here": {}})


def test_eval_missing_label_errors():
    from miniwhy.errors import EvalError
    f = typed_formula("Permut{Old,Here}(buf, 0, 0)", {"buf": S.ARRAY_REAL})
    with pytest.raises(EvalError):
        eval_formula(f, {"Here": {"buf": [1]}})


@pytest.mark.parametrize("label", ["Old", "LoopEntry#3"])
def test_a_state_label_node_is_an_eval_error(label):
    # the parser builds no \at, and closure leaves none in an obligation
    x = S.Var(name="x", ty=S.INT)
    f = S.Binary(op=">", left=S.AtLabel(operand=x, label=label, ty=S.INT),
                 right=S.IntLit(value=0, ty=S.INT), ty=S.BOOL)
    with pytest.raises(EvalError, match="cannot evaluate AtLabel"):
        eval_formula(f, {"Here": {"x": 1}, "Old": {"x": 1}})


def test_eval_multi_binder_box():
    f = typed_formula(
        "\\forall integer k1 k2; (0 <= k1 <= 1 && 2 <= k2 <= 3) ==> a[k1] <= a[k2]",
        {"a": S.ARRAY_INT})
    assert eval_formula(f, {"Here": {"a": [1, 2, 5, 9]}})
    assert not eval_formula(f, {"Here": {"a": [1, 6, 5, 9]}})


def test_eval_empty_range_is_vacuous():
    f = typed_formula("\\forall integer k; 0 <= k <= n ==> a[k] > 0",
                      {"a": S.ARRAY_INT, "n": S.INT})
    assert eval_formula(f, {"Here": {"a": [], "n": -1}})


class QuantifierGen:
    """Random bounded quantifiers over real arrays a, b, ints n, m and a
    real x, each with the range its guards give every binder.

    A bound guard is kept as (binder, 'lo'|'hi', value), value(here, old,
    env) being the bound it sets given the outer binders' values in env."""

    BOUNDS = [  # text, value(here, old, env)
        ("0", lambda h, o, env: 0),
        ("2", lambda h, o, env: 2),
        ("-1", lambda h, o, env: -1),
        ("n", lambda h, o, env: h["n"]),
        ("m", lambda h, o, env: h["m"]),
        ("n - 1", lambda h, o, env: h["n"] - 1),
        ("\\length(a)", lambda h, o, env: len(h["a"])),
        ("\\length(a) - 1", lambda h, o, env: len(h["a"]) - 1),
        ("\\length(b)", lambda h, o, env: len(h["b"])),
        ("\\length(\\old(a))", lambda h, o, env: len(o["a"])),
    ]
    OUTER = [("k1", lambda h, o, env: env["k1"]),
             ("k1 + 1", lambda h, o, env: env["k1"] + 1)]
    RESIDUAL = ["a[{k}] > 0", "{k} != 1", "x < a[{k}]", "\\old(a)[{k}] >= 0"]
    OPS = ["<", "<=", ">", ">=", "==", "!="]

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def state(self, mode):
        rng = self.rng
        real = (lambda v: float(v)) if mode == "binary64" else (lambda v: v)

        def arr():
            return [real(Fraction(rng.randint(-4, 6), 2)) for _ in range(rng.randint(0, 4))]

        def one():
            return {"a": arr(), "b": arr(), "n": rng.randint(-1, 5),
                    "m": rng.randint(-1, 5), "x": real(Fraction(rng.randint(-4, 6), 2))}
        return one(), one()

    def bound_guard(self, k, kind, outer, old_bounds):
        rng = self.rng
        text, value = rng.choice([b for b in self.BOUNDS if old_bounds or "old" not in b[0]]
                                 + (self.OUTER if outer else []))
        strict = rng.random() < 0.5
        delta = (1 if kind == "lo" else -1) if strict else 0
        op = {("lo", False): "<=", ("lo", True): "<",
              ("hi", False): ">=", ("hi", True): ">"}[kind, strict]
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        guard = (f"{text} {op} {k}" if rng.random() < 0.5
                 else f"{k} {flip[op]} {text}")
        return guard, (k, kind, lambda h, o, env: value(h, o, env) + delta)

    def quantifier(self, old_bounds):
        """(formula text, bound guards); bounds read the Old state only if
        old_bounds."""
        rng = self.rng
        binders = ["k"] if rng.random() < 0.6 else ["k1", "k2"]
        guards, bounds = [], []
        for i, k in enumerate(binders):
            for kind in ("lo", "hi"):
                for _ in range(1 if rng.random() < 0.8 else 2):
                    g, b = self.bound_guard(k, kind, i > 0, old_bounds)
                    guards.append(g)
                    bounds.append(b)
        rng.shuffle(guards)
        k = binders[-1]
        if rng.random() < 0.25:
            guards.insert(rng.randint(0, len(guards)),
                          rng.choice(self.RESIDUAL).format(k=k))
        text = (f"\\forall integer {' '.join(binders)}; "
                f"{' && '.join(guards)} ==> {self.consequent(binders)}")
        return text, bounds

    def consequent(self, binders):
        rng = self.rng
        k = binders[-1]
        op = rng.choice(self.OPS)
        if rng.random() < 0.75:
            read = rng.choice(["a", "b", "\\old(a)"]) + f"[{k}]"
            others = ["x", "0", "n", f"a[{rng.randint(-1, 4)}]", "b[n]", "\\old(b)[m]"]
            if len(binders) == 2:
                others += ["a[k1]", "b[k1]"]
            other = rng.choice(others)
            return (f"{read} {op} {other}" if rng.random() < 0.5
                    else f"{other} {op} {read}")
        return rng.choice([f"a[{k}] + 1 {op} x", f"\\old(a[{k}]) {op} x",
                           f"a[{k}] {op} a[{k}]", f"a[{k}] > 0 || b[{k}] {op} 1",
                           f"a[{k} - 1] {op} b[{binders[0]}]"])


def _expanded(f, bounds, here, old):
    """The conjunction of the instances of quantifier f over the ranges its
    bound guards give, in enumeration order (outer binder first)."""
    names = [name for name, _ in f.binders]
    instances = []

    def enumerate_from(i, env):
        if i == len(names):
            values = {n: S.IntLit(value=v, ty=S.INT) for n, v in env.items()}
            instances.append(S.substitute(f.body, values))
            return
        lo = max(v(here, old, env) for k, kind, v in bounds if k == names[i] and kind == "lo")
        hi = min(v(here, old, env) for k, kind, v in bounds if k == names[i] and kind == "hi")
        for value in range(lo, hi + 1):
            enumerate_from(i + 1, {**env, names[i]: value})
    enumerate_from(0, {})
    return S.conj(instances)


def _outcome(f, states, mode, evaluate=eval_formula):
    try:
        return evaluate(f, states, mode)
    except MiniWhyError as ex:
        return type(ex), str(ex)


@pytest.mark.parametrize("mode", ["rational", "binary64"])
def test_quantifiers_evaluate_as_the_conjunction_of_their_instances(mode):
    var_types = {"a": S.ARRAY_REAL, "b": S.ARRAY_REAL, "n": S.INT, "m": S.INT,
                 "x": S.REAL}
    outcomes = set()
    for seed in range(1500):
        gen = QuantifierGen(seed)
        old_bounds = seed % 4 != 0
        text, bounds = gen.quantifier(old_bounds)
        f = typed_formula(text, var_types, CTX_ENSURES)
        for i in range(2):
            here, old = gen.state(mode)
            # without an Old state, reading \old(a) raises when reached
            states = {"Here": here, "Old": old} if old_bounds or i else {"Here": here}
            want = _outcome(_expanded(f, bounds, here, old), states, mode)
            assert _outcome(f, states, mode) == want, (text, here, old)
            outcomes.add(want if isinstance(want, bool) else want[0])
    assert outcomes == {True, False, ExecutionFault, EvalError}


# operators whose leaf operands are read in place, and chains of one
# connective, against a tree-walking evaluator written here

FUSED_TYPES = {"n": S.INT, "m": S.INT, "a": S.ARRAY_INT,
               "x": S.REAL, "y": S.REAL, "b": S.ARRAY_REAL}
FUSED_OPERANDS = {  # (type, operand kind) -> texts; k is the binder
    ("int", "slot"): ["n", "m"],
    ("int", "cell"): ["k"],
    ("int", "const"): ["0", "1", "3"],
    ("int", "old"): ["\\old(n)", "\\old(m)"],
    ("int", "compound"): ["a[m]", "a[k]", "(n * m)", "-n"],
    ("real", "slot"): ["x", "y"],
    ("real", "const"): ["0.0", "0.5", "1.5"],
    ("real", "old"): ["\\old(x)"],
    ("real", "compound"): ["b[m]", "x / y", "(x - 0.5)"],
}
FUSED_KINDS = ("slot", "cell", "const", "old", "compound")
FUSED_RANGE = range(0, 2)       # the binder's range in every quantifier
FUSED_QUANTIFIER = "\\forall integer k; 0 <= k && k <= 1 ==> "
BINARY64_EXTREMES = (1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 1.5)


def _fused_atoms():
    """One formula text per pair of operand kinds and per comparison and
    arithmetic operator, in both types (binders are ints only)."""
    atoms = []
    for ty in ("int", "real"):
        kinds = [k for k in FUSED_KINDS if (ty, k) in FUSED_OPERANDS]
        rng = random.Random(ty)
        for lk, rk in itertools.product(kinds, kinds):
            for op in QuantifierGen.OPS + ["+", "-", "*", "/"]:
                left = rng.choice(FUSED_OPERANDS[ty, lk])
                right = rng.choice(FUSED_OPERANDS[ty, rk])
                if op in QuantifierGen.OPS:
                    atoms.append(f"{left} {op} {right}")
                else:
                    third = rng.choice(FUSED_OPERANDS[ty, rng.choice(kinds)])
                    atoms.append(f"{left} {op} {right} {rng.choice(QuantifierGen.OPS)} {third}")
    return atoms


def _fused_chain(rng, atoms, first):
    """A chain of 1-5 operands of one connective, `first` among them, some
    of them parenthesised chains of another connective."""
    op = rng.choice(["&&", "||", "==>"])
    parts = [rng.choice(atoms) for _ in range(rng.randint(0, 4))]
    parts.insert(rng.randint(0, len(parts)), first)
    for i, part in enumerate(parts):
        if rng.random() < 0.15:
            inner = rng.choice([o for o in ("&&", "||", "==>") if o != op])
            parts[i] = f"({part} {inner} {rng.choice(atoms)})"
        elif len(parts) > 1:
            parts[i] = f"({part})"
    text = f" {op} ".join(parts)
    if len(parts) > 2 and rng.random() < 0.3:      # nested the other way
        text = (f"{parts[0]} {op} ({f' {op} '.join(parts[1:])})" if op != "==>"
                else f"({parts[0]} {op} {parts[1]}) {op} {f' {op} '.join(parts[2:])}")
    if re.search(r"\bk\b", text) or rng.random() < 0.3:
        text = FUSED_QUANTIFIER + "(" + text + ")"
    return text


def _fused_state(rng, mode, extreme=False):
    """(Here, Old) states; extreme ones hold binary64 reals at the ends of
    the range, where + - * / overflow or divide by a zero."""
    real = float if mode == "binary64" else (lambda v: v)

    def value():
        if extreme:
            return rng.choice(BINARY64_EXTREMES)
        return real(Fraction(rng.randint(-2, 4), 2))

    def one():
        return {"n": rng.randint(-1, 3), "m": rng.randint(-1, 3),
                "a": [rng.randint(-2, 3) for _ in range(rng.randint(0, 3))],
                "x": value(), "y": value(),
                "b": [value() for _ in range(rng.randint(0, 3))]}
    return one(), one()


def _walk(e, here, old, env, mode):
    """The value of e by a plain walk over the tree: operands left to
    right, connectives short-circuit, and a quantifier over FUSED_RANGE."""
    def ev(x):
        return _walk(x, here, old, env, mode)
    line = e.pos[0]
    if isinstance(e, S.Var):
        return env[e.name] if e.name in env else here[e.name]
    if isinstance(e, S.OldExpr):
        if old is None:
            raise EvalError("state label Old/Pre is not available here")
        return _walk(e.operand, old, old, env, mode)
    if isinstance(e, (S.IntLit, S.BoolLit)):
        return e.value
    if isinstance(e, S.RealLit):
        return float(e.text) if mode == "binary64" else e.value
    if isinstance(e, S.Coerce):
        return float(ev(e.operand)) if mode == "binary64" else ev(e.operand)
    if isinstance(e, S.Unary):
        return -ev(e.operand) if e.op == "-" else not ev(e.operand)
    if isinstance(e, S.Index):
        arr, i = ev(e.array), ev(e.index)
        if not 0 <= i < len(arr):
            raise ExecutionFault(f"array index {i} out of bounds 0..{len(arr) - 1}", line)
        return arr[i]
    if isinstance(e, S.Forall):
        for k in FUSED_RANGE:
            if not _walk(e.body.right, here, old, {**env, "k": k}, mode):
                return False
        return True
    if e.op == "&&":
        return ev(e.left) and ev(e.right)
    if e.op == "||":
        return ev(e.left) or ev(e.right)
    if e.op == "==>":
        return not ev(e.left) or ev(e.right)
    if e.op == "/":
        n, d = ev(e.left), ev(e.right)
        if d == 0:
            raise ExecutionFault("division by zero", line)
        v = n / (d if mode == "binary64" else Fraction(d))
    else:
        v = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             **S.COMPARE}[e.op](ev(e.left), ev(e.right))
    if mode == "binary64" and e.ty == S.REAL and not math.isfinite(v):
        raise ExecutionFault("real overflow in binary64 mode", line)
    return v


def _walked(f, states, mode):
    try:
        return bool(_walk(f, states["Here"], states.get("Old"), {}, mode))
    except MiniWhyError as ex:
        return type(ex), str(ex)


@pytest.mark.parametrize("mode", ["rational", "binary64"])
def test_fused_operators_and_flat_chains_evaluate_as_the_tree(mode):
    """Every pair of operand kinds under each comparison and under
    + - * /, in chains of 1-5 operands of &&, || and ==>, gives the value,
    or the fault class and text, of a plain walk over the tree. In binary64
    a fourth state per formula holds extreme reals, so that the overflow
    and zero-divisor checks are reached through every operand kind."""
    atoms = _fused_atoms()
    rng = random.Random(mode)
    outcomes, faults = set(), set()
    for atom in atoms:
        text = _fused_chain(rng, atoms, atom)
        f = typed_formula(text, FUSED_TYPES, CTX_ENSURES)
        for i in range(4 if mode == "binary64" else 3):
            here, old = _fused_state(rng, mode, extreme=i == 3)
            states = {"Here": here} if i == 2 else {"Here": here, "Old": old}
            want = _walked(f, states, mode)
            assert _outcome(f, states, mode) == want, (text, states)
            outcomes.add(want if isinstance(want, bool) else want[0])
            faults.add(None if isinstance(want, bool) else want[1])
    assert outcomes == {True, False, ExecutionFault, EvalError}
    if mode == "binary64":
        assert {"real overflow in binary64 mode at line 1",
                "division by zero at line 1"} <= faults


@pytest.mark.parametrize("mode", ["rational", "binary64"])
@pytest.mark.parametrize("text, want", [
    ("n != n && x / y > 0.0 && n == n", False),
    ("n == n && x / y > 0.0 && n == n",
     (ExecutionFault, "division by zero at line 1")),
    ("n != n && a[3] > 0 && n == n", False),
    ("n == n && a[3] > 0 && n == n",
     (ExecutionFault, "array index 3 out of bounds 0..2 at line 1")),
    ("n == n || x / y > 0.0 || n != n", True),
    ("n != n || a[n + 3] > 0 || n == n",
     (ExecutionFault, "array index 3 out of bounds 0..2 at line 1")),
    ("n != n ==> a[3] > 0 ==> n == n", True),
    ("n == n && n == n ==> x / y > 0.0 ==> n != n",
     (ExecutionFault, "division by zero at line 1")),
])
def test_a_fault_is_reached_only_where_the_short_circuit_reaches_it(mode, text, want):
    f = typed_formula(text, FUSED_TYPES, CTX_ENSURES)
    real = float if mode == "binary64" else (lambda v: v)
    states = {"Here": {"n": 0, "m": 0, "a": [1, 2, 3], "x": real(1), "y": real(0),
                       "b": []}}
    assert _outcome(f, states, mode) == _walked(f, states, mode) == want


@pytest.mark.parametrize("mode", ["rational", "binary64"])
def test_a_dividend_is_evaluated_before_its_divisor(mode):
    """`a[5] / x` with a = [1.0] and x = 0.0 faults on the read, as
    left-to-right evaluation does, in a formula and in a method body."""
    real = float if mode == "binary64" else Fraction
    f = typed_formula("b[5] / x > 0.0", FUSED_TYPES, CTX_ENSURES)
    states = {"Here": {"n": 0, "m": 0, "a": [], "x": real(0), "y": real(0),
                       "b": [real(1)]}}
    want = (ExecutionFault, "array index 5 out of bounds 0..0 at line 1")
    assert _outcome(f, states, mode) == _walked(f, states, mode) == want
    tu = typecheck(parse("real f(real[] a, real x) { return a[5] / x; }"))
    out = exec_method(tu, "f", [[real(1)], real(0)], mode)
    assert out.status == "runtime-error"
    assert "array index 5 out of bounds 0..0" in out.error


def test_compiled_tests_compile_again_for_a_bundle_of_another_layout():
    f = typed_formula("x < y", {"x": S.INT, "y": S.INT})
    tests = interp.CompiledTests((f,))
    assert eval_formula(tests, {"Here": {"x": 1, "y": 2}}) == []
    assert eval_formula(tests, {"Here": {"y": 1, "x": 2}}) == [(0, False)]
    assert eval_formula(tests, {"Here": {"x": 1, "y": 2, "z": 3}}) == []
    assert eval_formula(tests, {"Here": {"x": 1, "y": 2}}, "binary64") == []
    assert len(tests._tries) == 3
    with pytest.raises(EvalError, match="unbound variable 'y'"):
        eval_formula(f, {"Here": {"x": 1, "z": 2}})


JUNK = (ExecutionFault, "expected an int argument, got 'junk'")


@pytest.mark.parametrize("text, states, want", [
    ("x > 0", {"Here": {"x": "junk"}}, JUNK),
    ("x > 0", {"Here": {"x": 1, "y": "junk"}}, True),
    # both states bind every name read, whichever state reads it
    ("x > 0", {"Here": {"x": 1}, "Old": {"x": "junk"}}, JUNK),
    ("\\old(x) > 0", {"Here": {"x": "junk"}, "Old": {"x": 1}}, JUNK),
    # the prover's bundle for an obligation without symbols
    ("true", {"Here": {}, "Old": {}}, True),
])
def test_a_bare_formula_coerces_what_it_reads_and_keeps_the_fault_class(text, states, want):
    f = typed_formula(text, {"x": S.INT, "y": S.INT}, CTX_ENSURES)
    assert _outcome(f, states, "rational") == want


def test_bare_evaluation_agrees_with_the_reference():
    """FormulaGen formulas of every set, in both modes, on a bundle of Here
    alone, Here with a copy as Old, Here with a junk value, and Here
    holding binary64 extremes, give the value, or the fault class and
    text, that the reference evaluator of the tests gives."""
    seen = set()
    for reals_only, division in itertools.product((False, True), repeat=2):
        for seed in range(75):
            gen = FormulaGen(seed, reals_only, division)
            f = typed_formula(gen.formula(), gen.vars)
            here = gen.state()
            junk = dict(here, **{gen.rng.choice(sorted(here)): "junk"})
            extreme = dict(here, u=1.7976931348623157e308, v=-5e-324)
            for mode, states in itertools.product(
                    ("rational", "binary64"),
                    ({"Here": here}, {"Here": here, "Old": dict(here)},
                     {"Here": junk}, {"Here": extreme})):
                want = _outcome(f, states, mode, reference_eval)
                assert _outcome(f, states, mode) == want, (f, states, mode)
                seen.add(want if isinstance(want, bool) else want[0])
    assert seen == {True, False, ExecutionFault}


def test_ghost_variables_visible_to_annotations_only(quickselect_unit):
    out = exec_method(quickselect_unit, "find_nth_lowest_number",
                      [[4, 3, 2, 1, 0], 5, 2], "rational", trace=True)
    assert out.status == "normal"
    heads = [s for s in out.trace if s.kind == "loop-head" and s.loop_id == 1]
    assert heads and all("rounds" in s.state for s in heads)


def test_corpus_translate_entry(translate_unit):
    out = exec_method(translate_unit, "translate",
                      [Fraction(1, 2), 2, 3, Fraction(9, 4)], "rational")
    assert out.status == "normal"
    assert out.return_value == [Fraction(7, 2), Fraction(17, 4)]


def test_parallel_executions_share_a_unit(quickselect_unit):
    # executions own their state; a compiled unit is shared read-only
    import threading
    from miniwhy.interp import compile_unit
    compile_unit(quickselect_unit, "rational")
    cases = [([3, 1, 2], 3, 1), ([5, 4, 3, 2, 1], 5, 2), ([2, 2, 2], 3, 0),
             ([7, -1, 0, 9], 4, 3)]
    results = {}

    def worker(idx, args):
        out = exec_method(quickselect_unit, "find_nth_lowest_number",
                          list(args), "rational")
        results[idx] = (out.status, out.return_value)

    threads = [threading.Thread(target=worker, args=(i, c))
               for i, c in enumerate(cases * 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, (buf, ln, n) in enumerate(cases * 4):
        assert results[i] == ("normal", sorted(buf)[n])


# ---------------------------------------------------------------------------
# the contract-violation path: quickselect variants whose quantified loop
# invariants are false on repeated values

STRICT_VARIANTS = {
    # the outer loop's first two-binder invariant
    "strict-pair": ("==> buf[k1] <= buf[k2]", "==> buf[k1] < buf[k2]", 1),
    # both one-binder invariants that bound the right part by med
    "strict-right": ("==> buf[k] >= med", "==> buf[k] > med", -1),
}
STRICT_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                             "quickselect_strict.checks.txt")


def _events_text(events):
    """The check events in order; a run of equal events is written once,
    with its count."""
    out = []
    keys = ((e.kind, e.line, e.verdict, e.label, json.dumps(e.witness))
            for e in events)
    for (kind, line, verdict, label, witness), run in itertools.groupby(keys):
        text = f"{kind}@{line}" + (f"[{label}]" if label else "")
        if verdict != "pass":
            text += f":{verdict} {witness}"
        count = len(list(run))
        out.append(text if count == 1 else f"{text}*{count}")
    return "; ".join(out)


def strict_quickselect_checks() -> str:
    """Status, return value, error, checks passed and every check event of
    the strict variants on a fixed part of the criterion-2 grid, one line
    per run."""
    src = corpus.source_text("find_nth_lowest_number")
    grid = list(corpus.exhaustive_quickselect_cases(4, (0, 1, 2)))
    lines = []
    for variant, (old, new, count) in STRICT_VARIANTS.items():
        assert old in src
        tu = typecheck(parse(src.replace(old, new, count)))
        for mode, stride in (("rational", 4), ("binary64", 12)):
            for buf, length, n in grid[::stride]:
                arg = buf if mode == "rational" else [float(x) for x in buf]
                out = exec_method(tu, "find_nth_lowest_number", [arg, length, n],
                                  mode, collect_events=True)
                ret = "-" if out.return_value is None else value_repr(out.return_value)
                lines.append(f"{variant} {mode} {buf} {length} {n} | {out.status} | "
                             f"{ret} | {out.error or '-'} | {out.checks_passed} | "
                             f"{_events_text(out.report)}")
    return "\n".join(lines) + "\n"


def test_strict_quickselect_checks_match_golden():
    with open(STRICT_GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    got = strict_quickselect_checks()
    assert "contract-violation" in got and "normal" in got
    assert got.splitlines() == golden.splitlines()


# \forall bodies that are a conjunction or another \forall: the compiler
# splits the first into one quantifier per conjunct and merges the binders
# of the second; each must agree with a plain loop over the instances
FORALL_SHAPES = {
    "conjunction": (
        "\\forall integer k; (0 <= k && k < n ==> a[k] > x)"
        " && (0 <= k && k < n ==> a[k] < 2.5)",
        lambda a, n, x: all(x < a[k] < 2.5 for k in range(n))),
    "guarded-conjunction": (
        "\\forall integer k; 0 <= k && k < n ==> a[k] > x && a[k] < 2.5",
        lambda a, n, x: all(x < a[k] < 2.5 for k in range(n))),
    "nested": (
        "\\forall integer i; \\forall integer j;"
        " 0 <= i && i < n && 0 <= j && j < i ==> a[j] <= a[i]",
        lambda a, n, x: all(a[j] <= a[i] for i in range(n) for j in range(i))),
    "nested-in-conjunction": (
        "\\forall integer i; (0 <= i && i < n ==> a[i] > x)"
        " && (\\forall integer j; 0 <= i && i < n && 0 <= j && j < i"
        " ==> a[j] <= a[i])",
        lambda a, n, x: all(a[i] > x and all(a[j] <= a[i] for j in range(i))
                            for i in range(n))),
}


@pytest.mark.parametrize("mode", ["rational", "binary64"])
@pytest.mark.parametrize("shape", sorted(FORALL_SHAPES))
def test_split_and_nested_quantifiers_agree_with_a_loop(shape, mode):
    text, expected = FORALL_SHAPES[shape]
    f = typed_formula(text, {"a": S.ARRAY_REAL, "n": S.INT, "x": S.REAL})
    real = float if mode == "binary64" else (lambda v: v)
    rng = random.Random(shape)
    seen = set()
    for _ in range(200):
        a = [real(Fraction(rng.randint(-4, 6), 2)) for _ in range(rng.randint(0, 4))]
        n, x = rng.randint(0, len(a)), real(Fraction(rng.randint(-4, 2), 2))
        want = expected(a, n, x)
        assert eval_formula(f, {"Here": {"a": a, "n": n, "x": x}}, mode) == want
        seen.add(want)
    assert seen == {True, False}


# compile memos: trace validation shares one memo per (mode, state layout)
# across the obligations of one set

def _memo_runs():
    """Fixed traced runs of quickselect (rational) and of both sqrt methods
    (rational, and sqrt in binary64 too)."""
    qs, sq = corpus.unit("find_nth_lowest_number"), corpus.unit("sqrt_newton")
    runs = [(qs, "find_nth_lowest_number", [buf, len(buf), n], "rational")
            for buf, n in (([3, 1, 2], 1), ([5, -1, 5, 0, 2], 2),
                           ([4, 4, 1, -3, 7, 0], 3), ([2, 2, 2, 2], 0))]
    runs += [(sq, "sqrt", [Fraction(9, 4)], "rational"),
             (sq, "sqrt", [0], "rational"),
             (sq, "sqrt_newton", [Fraction(2), Fraction(1, 100)], "rational"),
             (sq, "sqrt", [2.0], "binary64")]
    obsets = {qs.unit.name: vcgen.generate_obligations(qs, "find_nth_lowest_number"),
              sq.unit.name: vcgen.generate_obligations(sq)}
    for unit, method, args, mode in runs:
        out = exec_method(unit, method, args, mode, trace=True)
        assert out.status == "normal", out.error
        yield obsets[unit.unit.name], out


def _outcomes(tests, states, mode):
    """Each test's outcome on one bundle, through a fresh cache: True when
    it holds, else False or its fault's message."""
    ended = dict(eval_formula(tests, states, mode))
    outcomes = [ended.get(t, True) for t in range(len(tests.tests))]
    return [v if isinstance(v, bool) else str(v) for v in outcomes]


def _bound_reads(trie, t):
    """The slot, type and int shortcut of each name test t reads in a
    trie, or its compile error's message."""
    for u, ex in trie.errors:
        if u == t:
            return str(ex)
    for cls in trie.classes:
        for u, reads in cls.reads:
            if u == t:
                return {n: cls.types[n] for n in reads}


def test_memoised_compile_binds_and_evaluates_as_an_unmemoised_one(monkeypatch):
    """For every group of tests and state layout met on the fixed traces,
    a trie that compiles the whole group under one memo binds the slots
    each test reads to the same types, and gives each test the same value
    or fault text on every bundle, as a trie of that test alone, under a
    fresh memo of its own."""
    bundles = []            # (the group's tests, states, mode), in the order evaluated
    real_eval, real_compile = vcgen.eval_formula, interp._compile

    def record_eval(tests, states, mode, cache=None):
        bundles.append((tests.tests, states, mode))
        return real_eval(tests, states, mode, cache=cache)

    def counted_compile(e, ctx, state):
        compiles.append(None)
        return real_compile(e, ctx, state)

    monkeypatch.setattr(vcgen, "eval_formula", record_eval)
    checked = nodes = entries = 0
    for obset, out in _memo_runs():
        bundles.clear()
        vcgen.instantiate_on_trace(obset, out)
        pairs = S.Memo()
        for tests, states, mode in bundles:
            layout = frozenset(_bundle_names(states))
            if pairs.get(tests, layout) is None:
                compiles = []
                monkeypatch.setattr(interp, "_compile", counted_compile)
                trie = interp._Trie(tests, layout, mode)
                monkeypatch.setattr(interp, "_compile", real_compile)
                entries += len(compiles)
                nodes += sum(1 for f in tests for _ in S.walk(f))
                for t, f in enumerate(tests):
                    assert _bound_reads(trie, t) == _bound_reads(
                        interp._Trie((f,), layout, mode), 0)
                pairs.put(tests, (interp.CompiledTests(tests),
                                  [interp.CompiledTests((f,)) for f in tests]), layout)
            shared, alone = pairs.get(tests, layout)
            got = _outcomes(shared, states, mode)
            assert got == [_outcomes(a, states, mode)[0] for a in alone]
            checked += len(got)
    # the tests share most of their nodes, so most compiles hit the memo
    assert checked > 500 and 4 * entries < nodes, (checked, entries, nodes)


def _bundle_names(states):
    return set().union(*(s for s in states.values() if s))


def test_a_shared_node_evaluates_as_in_the_unshared_formula():
    """One node object read under two \\foralls over different ranges, and
    under `\\old(e) == e`, evaluates in each place as its own copy does."""
    types = {"a": S.ARRAY_INT, "n": S.INT, "m": S.INT, "x": S.INT}
    texts = ("\\forall integer k; 0 <= k && k < n ==> a[k] + x > 0",
             "\\forall integer k; n <= k && k < m ==> a[k] + x > 0",
             "\\old(a[n] + x) == a[n] + x")
    copies = [typed_formula(t, types, CTX_ENSURES) for t in texts]
    first, second, old = [typed_formula(t, types, CTX_ENSURES) for t in texts]
    second = replace(second, body=replace(second.body, right=first.body.right))
    old = replace(old, right=old.left.operand)
    assert second.body.right is first.body.right and old.right is old.left.operand
    unshared, shared = S.conj(copies), S.conj([first, second, old])
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        a = [rng.randint(-3, 3) for _ in range(4)]
        here = {"a": a, "n": rng.randint(0, 3), "m": rng.randint(0, 4),
                "x": rng.randint(-1, 3)}
        old_state = {**here, "a": [rng.randint(-3, 3) for _ in range(4)],
                     "x": rng.choice([here["x"], 0])}
        states = {"Here": here, "Old": old_state}
        # the four parts compile under one memo: those after the whole
        # formula hit it
        parts = interp.CompiledTests((shared, first, second, old))
        got = _outcomes(parts, states, "rational")
        for part, copy, value in zip(parts.tests, [unshared] + copies, got):
            want = _outcome(copy, states, "rational")
            assert value == (want if isinstance(want, bool) else want[1]), (part, states)
            seen.add(want)
    assert {True, False} <= seen


def test_trace_validation_keeps_compiled_tests_as_long_as_the_set():
    """Compiled tests live as long as the obligation set: a second call on
    the same set and layouts compiles nothing, and once the set and the
    outcomes are gone, so are the tries and their closures. The set's
    plan holds the tests, and the obligations keep nothing but the set's
    prover table."""
    runs = _memo_runs()
    (obset, first), second = next(runs), next(runs)[1]
    runs.close()

    def alive():
        gc.collect()
        objs = gc.get_objects()
        return (sum(isinstance(o, interp._Trie) for o in objs),
                sum(type(o) is FunctionType and o.__module__ == "miniwhy.interp"
                    for o in objs))

    before = alive()
    assert len(vcgen.instantiate_on_trace(obset, first).passed) == len(obset)
    made = alive()
    # one trie per group of obligations, each with its own closures
    groups = sum(tests is not None for _, _, tests in obset._trace_groups[1])
    assert made[0] - before[0] == groups > 1 and made[1] > before[1]
    assert len(vcgen.instantiate_on_trace(obset, second).passed) == len(obset)
    assert alive() == made
    assert all(ob._forms is obset._forms for ob in obset)
    del obset, first, second
    assert alive() == before


def _undeclared(obj):
    return set(vars(obj)) - set(type(obj).__dataclass_fields__)


def test_every_cache_is_a_declared_field():
    """After generation, proof, execution and trace validation, no
    obligation, obligation set or typed unit holds an attribute its class
    does not declare."""
    for obset, out in _memo_runs():
        vcgen.instantiate_on_trace(obset, out)
        for ob in obset:
            prove_internal(ob)
        assert [o for o in [obset, *obset] if _undeclared(o)] == []
    for name in ("find_nth_lowest_number", "sqrt_newton"):
        tu = corpus.unit(name)
        assert tu._compiled and tu._digest
        assert _undeclared(tu) == set()


def test_eval_formula_without_a_cache_reads_nothing_an_earlier_call_stored():
    """A formula, and compiled tests whose trie reads a closure on two
    edges through the walk's table, evaluated on one state dict, the
    dict changed in place, then evaluated again: without a cache each call
    binds and tables afresh, so the second verdict is the changed state's."""
    sorts = {"x": S.INT, "y": S.INT}
    f = typed_formula("x > 0 && y >= 0 ==> y > x", sorts)
    # `x > 0` is one node on two edges: after the root, and after `y >= 0`
    g = typed_formula("x > 0 ==> y > x", sorts)
    g2 = S.Binary(op="==>", left=typed_formula("y >= 0", sorts), right=g, ty=S.BOOL)
    state = {"x": 1, "y": 0}
    states = {"Here": state}
    tests = interp.CompiledTests((g, g2))
    for compiled, false, true in ((f, False, True),
                                  (tests, [(0, False), (1, False)], [])):
        state.update(x=1, y=0)
        assert eval_formula(compiled, states, "rational") == false
        state["x"] = 0          # the antecedent is now false
        assert eval_formula(compiled, states, "rational") == true
        state.update(x=1, y=2)
        assert eval_formula(compiled, states, "rational") == true
    (trie,) = tests._tries
    (cls,) = trie.classes
    runs = [cls.root]
    runs += [c for node in runs for c in node[2]]
    assert [p.__qualname__ for node in runs for p in node[0]].count("_tabled.<locals>.read") == 2


def test_result_in_a_standalone_formula_is_an_eval_error():
    # no method is running, so no result exists to read
    f = S.Binary(op=">", left=S.ResultExpr(ty=S.INT),
                 right=S.IntLit(value=0, ty=S.INT), ty=S.BOOL)
    with pytest.raises(EvalError, match="\\\\result cannot appear"):
        eval_formula(f, {"Here": {}})
