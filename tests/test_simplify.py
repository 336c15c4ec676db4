import importlib
import types
from fractions import Fraction

import pytest

import miniwhy
from miniwhy import corpus, prover
from miniwhy import syntax as S
from miniwhy.errors import EvalError, ExecutionFault
from miniwhy.interp import eval_formula
from miniwhy.printer import expr_to_str
from miniwhy.simplify import linear_form, simplify
from miniwhy.vcgen import Obligation, Origin, generate_obligations

from helpers import FormulaGen, typed_formula

TRUE = S.BoolLit(value=True, ty=S.BOOL)


def tf(text, **vars):
    return typed_formula(text, vars)


def test_translate_obligation_folds_to_true():
    f = tf("x + dx == x + dx && y + dy == y + dy",
           x=S.REAL, dx=S.REAL, y=S.REAL, dy=S.REAL)
    assert simplify(f) == TRUE


def test_select_store_same_index():
    buf = S.Var(name="buf", ty=S.ARRAY_REAL)
    i = S.Var(name="i", ty=S.INT)
    d = S.Var(name="d", ty=S.REAL)
    m = S.Var(name="m", ty=S.REAL)
    sel = S.Index(array=S.Store(array=buf, index=i, value=d, ty=S.ARRAY_REAL),
                  index=i, ty=S.REAL)
    f = S.Binary(op="<=", left=sel, right=m, ty=S.BOOL)
    assert expr_to_str(simplify(f)) == "d <= m"


def test_select_store_provably_distinct_index():
    buf = S.Var(name="buf", ty=S.ARRAY_REAL)
    i = S.Var(name="i", ty=S.INT)
    ip1 = S.Binary(op="+", left=i, right=S.IntLit(value=1, ty=S.INT), ty=S.INT)
    d = S.Var(name="d", ty=S.REAL)
    m = S.Var(name="m", ty=S.REAL)
    sel = S.Index(array=S.Store(array=buf, index=i, value=d, ty=S.ARRAY_REAL),
                  index=ip1, ty=S.REAL)
    f = S.Binary(op="<=", left=sel, right=m, ty=S.BOOL)
    assert expr_to_str(simplify(f)) == "buf[i + 1] <= m"


def test_bounded_quantifier_expansion():
    f = tf("\\forall integer k; 0 <= k <= 2 ==> a[k] <= a[3]", a=S.ARRAY_INT)
    out = simplify(f)
    assert expr_to_str(out) == "a[0] <= a[3] && a[1] <= a[3] && a[2] <= a[3]"


def test_expansion_respects_the_size_limit():
    f = tf("\\forall integer k; 0 <= k <= 100 ==> k >= 0")
    out = simplify(f)
    assert isinstance(out, S.Forall)


@pytest.mark.parametrize("text, expected", [
    # an empty literal range, whether hi is lo - 1 or below it
    ("\\forall integer k; 3 <= k <= 2 ==> a[k] > 0", "true"),
    ("\\forall integer k; 3 <= k <= 1 ==> a[k] > 0", "true"),
    ("\\forall integer j, k; 5 <= k <= 0 ==> a[j] >= k", "true"),
    # a binder left over after the other is peeled
    ("\\forall integer j, k; 0 <= k <= 1 ==> a[j] >= k",
     "\\forall integer j; a[j] >= 0 && a[j] >= 1"),
    # a body that folds to a literal
    ("\\forall integer k; k >= 0 ==> k + 1 > k", "true"),
    ("\\forall real x; x < x", "false"),
])
def test_quantifier_expansion_paths_agree_with_a_shared_table(monkeypatch, text,
                                                              expected):
    """Each path, simplified with a fresh table and then by two obligations
    that share one table, as the obligations of a set do."""
    f = tf(text, a=S.ARRAY_INT)
    assert expr_to_str(simplify(f)) == expected
    seen = []

    def spy(g, forms=None):
        seen.append(simplify(g, forms))
        return seen[-1]

    monkeypatch.setattr(prover, "simplify", spy)
    table = {}
    obs = [Obligation(id=f"t:00{i}:assert", name="t", origin=Origin("m", 1, "assert"),
                      hypotheses=[], goal=f, var_sorts={"a": S.ARRAY_INT})
           for i in range(2)]
    alone = prover.prove_internal(obs[0])
    for ob in obs:
        ob._forms = table
    shared = [prover.prove_internal(ob) for ob in obs]
    assert [expr_to_str(g) for g in seen] == [expected] * 3
    assert seen[1] is seen[2]                   # the second read the memo
    assert [st.detail for st in shared] == [alone.detail] * 2


def test_repeated_operands_are_dropped_and_the_first_kept():
    """Operands equal to a kept one are dropped, whether the same object,
    a comparison with the same op and side forms, or another equal formula,
    and the kept ones stay in their order."""
    v = dict(x=S.REAL, y=S.REAL, z=S.REAL, p=S.BOOL)
    f = tf("x < y && y != 0.0 && x < y && (x > 1.0 || x > 1.0) && (z > 0.0 ==> p)"
           " && x > 1.0 && (z > 0.0 ==> p)", **v)
    assert expr_to_str(simplify(f)) == "x < y && y != 0.0 && x > 1.0 && (z > 0.0 ==> p)"
    g = tf("x < y || (z > 0.0 && p) || y > x || (z > 0.0 && p) || x < y", **v)
    assert expr_to_str(simplify(g)) == "x < y || z > 0.0 && p || y > x"
    q = tf("z / y > x", **v)
    same = S.Binary(op="&&", left=q, right=S.Binary(op="&&", left=tf("p", **v),
                                                     right=q, ty=S.BOOL), ty=S.BOOL)
    assert expr_to_str(simplify(same)) == "z / y > x && p"


def test_zero_division_rewrite_under_hypothesis():
    f = tf("y != 0 ==> 0.0 / y == 0.0", y=S.REAL)
    assert simplify(f) == TRUE
    g = tf("0.0 / y == 0.0", y=S.REAL)
    # no hypothesis: stays a division atom
    assert simplify(g) != TRUE
    h = tf("y > 0 ==> 0.0 / y == 0.0", y=S.REAL)
    assert simplify(h) == TRUE


def test_division_by_a_nonzero_constant_is_linear():
    assert simplify(tf("x / 2.0 - 0.5 * x == 0.0", x=S.REAL)) == TRUE
    assert simplify(tf("(x + y) / -4.0 == -0.25 * y - x / 4.0",
                       x=S.REAL, y=S.REAL)) == TRUE
    # a zero divisor leaves the quotient an atom
    assert expr_to_str(simplify(tf("x / (y - y) > 0.0", x=S.REAL, y=S.REAL))) \
        == "x / 0.0 > 0.0"


def test_boolean_absorption_and_flattening():
    f = tf("true && (x > 0 || false) && true", x=S.INT)
    assert expr_to_str(simplify(f)) == "x > 0"
    g = tf("x > 0 ==> x > 0", x=S.INT)
    assert simplify(g) == TRUE
    h = tf("!!(x > 0)", x=S.INT)
    assert expr_to_str(simplify(h)) == "x > 0"


def test_constant_folding_is_exact():
    f = tf("0.1 + 0.2 == 0.3")
    assert simplify(f) == TRUE       # exact decimal arithmetic, unlike floats
    g = tf("1.2E-7 * 10000000.0 == 1.2")
    assert simplify(g) == TRUE


def test_sum_of_terms_normalization():
    f = tf("x + x + 1 - 2 * x == 1", x=S.INT)
    assert simplify(f) == TRUE
    g = tf("(a + b) - (b + a) == 0", a=S.INT, b=S.INT)
    assert simplify(g) == TRUE


# ---------------------------------------------------------------------------
# soundness: eval(f) == eval(simplify(f)) on random ground formulas

def _evaluation_mismatches(division):
    failures = []
    for seed in range(1000):
        gen = FormulaGen(seed, division=division)
        text = gen.formula()
        try:
            f = typed_formula(text, dict(gen.vars))
        except AssertionError:
            continue      # e.g. binder collision after the crude rename
        sigma = gen.state()
        states = {"Here": dict(sigma), "Old": dict(sigma)}
        try:
            before = eval_formula(f, states, "rational")
        except (EvalError, ExecutionFault):
            continue      # not ground-evaluable, or a zero divisor in sigma
        after_f = simplify(f)
        if isinstance(after_f, S.BoolLit):
            after = after_f.value
        else:
            after = eval_formula(after_f, states, "rational")
        if before != after:
            failures.append((seed, text, sigma))
    return failures


def test_simplify_preserves_evaluation_on_1000_random_formulas():
    failures = _evaluation_mismatches(division=False)
    assert not failures, failures[:3]


def test_simplify_preserves_evaluation_with_division():
    failures = _evaluation_mismatches(division=True)
    assert not failures, failures[:3]


# ---------------------------------------------------------------------------
# the numbers in linear forms

def test_int_terms_have_int_forms():
    f = tf("2 * a - 3 * (b + 1) + 7 == 0", a=S.INT, b=S.INT)
    lin = linear_form(f.left)
    assert lin.key() == (4, (("a", 2), ("b", -3)))
    assert all(type(v) is int for v in (lin.const, *lin.coeffs.values()))


def test_division_by_an_int_constant_is_an_exact_fraction():
    for x in (S.INT, S.REAL):
        lin = linear_form(tf("x / 3 == 0.0", x=x).left)
        assert lin.coeffs == {"x": Fraction(1, 3)}
        assert type(lin.coeffs["x"]) is Fraction


def test_simplified_real_coefficients_are_fraction_literals():
    # int literals coerced to real keep int forms up to rendering
    for text, expected, count in [
            ("3 * x > 2 - x", "3.0 * x > -x + 2.0", 2),
            ("2.0 * x + 3 * x - y / 3 > 1 + 0.5 * y",
             "5.0 * x - 1.0 / 3.0 * y > 0.5 * y + 1.0", 5)]:
        out = simplify(tf(text, x=S.REAL, y=S.REAL))
        assert expr_to_str(out) == expected
        lits = [n for n in S.walk(out) if isinstance(n, S.RealLit)]
        assert len(lits) == count
        assert all(type(n.value) is Fraction for n in lits)


# ---------------------------------------------------------------------------
# the forms table: each numeric comparison with the forms it was rendered from

def _table_formulas():
    for e in corpus.corpus_sources():
        for ob in generate_obligations(corpus.unit(e.name)):
            f = ob.goal
            for h in reversed(ob.hypotheses):
                f = S.Binary(op="==>", left=h, right=f, ty=S.BOOL)
            yield ob.id, f
    for division in (False, True):
        for reals_only in (False, True):
            for seed in range(300):
                gen = FormulaGen(seed, reals_only, division)
                yield (reals_only, division, seed), \
                    typed_formula(gen.formula(), dict(gen.vars))


def test_every_simplified_comparison_has_its_forms_in_the_table():
    checked = 0
    for where, f in _table_formulas():
        forms = {}
        out = simplify(f, forms)
        for n in S.walk(out):
            if not (isinstance(n, S.Binary) and n.op in S.COMPARE
                    and n.left.ty in (S.INT, S.REAL)):
                continue
            entry = forms.get(id(n))
            assert entry is not None and entry[0] is n, (where, expr_to_str(n))
            assert entry[1].key() == linear_form(n.left).key(), where
            assert entry[2].key() == linear_form(n.right).key(), where
            checked += 1
    assert checked > 1000, checked


# ---------------------------------------------------------------------------
# boolean (dis)equality: identical sides fold, others are kept

BOOLS = {"b": S.BOOL, "c": S.BOOL, "x": S.INT}


@pytest.mark.parametrize("text, expected", [
    ("b == b", "true"),
    ("b != b", "false"),
    ("(x > 0) == (x > 0)", "true"),
    ("b != c", "b != c"),
])
def test_boolean_equality_folds_identical_sides(text, expected):
    f = tf(text, **BOOLS)
    out = simplify(f)
    assert expr_to_str(out) == expected
    for b in (False, True):
        for c in (False, True):
            for x in (-1, 1):
                sigma = {"b": b, "c": c, "x": x}
                states = {"Here": dict(sigma), "Old": dict(sigma)}
                assert eval_formula(out, states, "rational") \
                    == eval_formula(f, states, "rational"), (text, sigma)


# ---------------------------------------------------------------------------
# the package's functions shadow their modules' names

def test_simplify_and_typecheck_modules_stay_importable():
    for name in ("simplify", "typecheck"):
        module = importlib.import_module(f"miniwhy.{name}")
        assert isinstance(module, types.ModuleType)
        # the package attribute is the module's function of the same name
        assert getattr(miniwhy, name) is getattr(module, name)
    from miniwhy.simplify import linearize
    from miniwhy.typecheck import check_unit
    assert linearize is importlib.import_module("miniwhy.simplify").linearize
    assert check_unit is importlib.import_module("miniwhy.typecheck").check_unit
