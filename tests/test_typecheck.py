import pytest

from miniwhy import corpus
from miniwhy import syntax as S
from miniwhy.errors import TypeCheckFailure
from miniwhy.parser import parse
from miniwhy.typecheck import check_unit, typecheck

from helpers import parse_formula, typed_formula


def issues_of(src):
    return check_unit(parse(src))


def test_corpus_typechecks_clean():
    for entry in corpus.corpus_sources():
        assert check_unit(parse(corpus.source_text(entry.name))) == []


def test_real_into_int_is_an_error():
    msgs = issues_of("void f() { int x; x = 1.5; }")
    assert any("int" in str(m) for m in msgs)


def test_unknown_identifier_in_ensures():
    msgs = issues_of("/*@ ensures z > 0; @*/ int f(int x) { return x; }")
    assert any("unknown identifier 'z'" in str(m) for m in msgs)


def test_result_in_void_method():
    msgs = issues_of("/*@ ensures \\result > 0; @*/ void f(int x) { }")
    assert any("\\result" in str(m) for m in msgs)


def test_result_not_allowed_in_requires():
    msgs = issues_of("/*@ requires \\result > 0; @*/ int f(int x) { return x; }")
    assert msgs


def test_old_not_allowed_in_requires():
    msgs = issues_of("/*@ requires \\old(x) > 0; @*/ int f(int x) { return x; }")
    assert any("old" in str(m) for m in msgs)


def test_permut_on_non_array():
    msgs = issues_of("/*@ ensures Permut{Old,Here}(x, 0, 1); @*/"
                     " void f(int x) { }")
    assert any("Permut" in str(m) for m in msgs)


def test_ghost_read_in_program_code():
    msgs = issues_of("void f(int n) { /*@ ghost int g = 0; @*/ n = g + 1; }")
    assert any("ghost" in str(m) for m in msgs)


def test_ghost_assign_needs_set():
    msgs = issues_of("void f(int n) { /*@ ghost int g = 0; @*/ g = 1; }")
    assert any("ghost" in str(m) for m in msgs)


def test_set_only_assigns_ghosts():
    msgs = issues_of("void f(int n) { /*@ set n = 1; @*/ }")
    assert any("set" in str(m) for m in msgs)


def test_widening_inserted_explicitly():
    tu = typecheck(parse("void f(real x, int k) { x = x + k; }"))
    body = tu.method("f").body
    assign = body.stmts[0]
    plus = assign.expr
    assert isinstance(plus.right, S.Coerce) and plus.right.ty == S.REAL


def test_division_is_real_valued():
    msgs = issues_of("void f(int a, int b) { int q = a / b; }")
    assert msgs        # real does not fit an int target
    assert issues_of("void f(int a, int b) { real q = a / b; }") == []


def test_calls_restricted_to_rhs_positions():
    src = ("int g(int x) { return x; }\n"
           "int f(int x) { return g(x) + 1; }")
    msgs = issues_of(src)
    assert any("right-hand side" in str(m) for m in msgs)
    ok = ("int g(int x) { return x; }\n"
          "int f(int x) { int t = g(x); return t; }")
    assert issues_of(ok) == []


def test_no_shadowing():
    msgs = issues_of("void f(int n) { int n = 0; }")
    assert any("redeclaration" in str(m) for m in msgs)


def test_missing_return():
    msgs = issues_of("int f(int n) { if (n > 0) { return n; } }")
    assert any("without a return" in str(m) for m in msgs)


def test_unreachable_after_return():
    msgs = issues_of("int f(int n) { return n; n = 1; }")
    assert any("unreachable" in str(m) for m in msgs)


def test_whole_array_assignment_rejected():
    msgs = issues_of("void f(real[] a) { real[] b = new real[2]; a = b; }")
    assert any("whole-array" in str(m) for m in msgs)


def test_array_compare_rejected():
    msgs = issues_of("/*@ ensures a == b; @*/ void f(int[] a, int[] b) { }")
    assert any("Permut" in str(m) for m in msgs)


def test_variant_must_be_integer():
    msgs = issues_of(
        "void f(real x) {\n"
        "  /*@ loop_invariant x >= 0; loop_variant x; @*/\n"
        "  while (x > 1) { x = x - 1; }\n"
        "}")
    assert any("integer" in str(m) for m in msgs)


def test_is_sqrt_expands_to_its_definition():
    tu = typecheck(parse(
        "/*@ ensures is_sqrt(\\result, c); @*/\n"
        "real f(real c) { return c; }"))
    ens = tu.method("f").spec.ensures
    text_nodes = [n for n in S.walk(ens) if isinstance(n, S.RealLit)]
    assert any(n.text == "1.2E-7" for n in text_nodes)
    assert not any(isinstance(n, S.PredCall) for n in S.walk(ens))


def test_unknown_predicate():
    msgs = issues_of("/*@ ensures is_cube(\\result, c); @*/ real f(real c) { return c; }")
    assert any("unknown predicate" in str(m) for m in msgs)


def test_typecheck_raises_with_all_issues():
    with pytest.raises(TypeCheckFailure) as exc:
        typecheck(parse("void f() { int x; x = 1.5; y = 2; }"))
    assert len(exc.value.issues) >= 2


def test_typecheck_does_not_mutate_source_tree():
    u = parse("void f(real x, int k) { x = x + k; }")
    before = pretty_print_snapshot(u)
    typecheck(u)
    assert pretty_print_snapshot(u) == before


def pretty_print_snapshot(u):
    from miniwhy.printer import pretty_print
    return pretty_print(u)


def test_duplicate_method_names():
    msgs = issues_of("void f() { } void f() { }")
    assert any("duplicate method" in str(m) for m in msgs)


def test_lemma_must_be_universal():
    msgs = issues_of("/*@ lemma l : 1 > 0; @*/")
    assert any("universally quantified" in str(m) for m in msgs)


def test_assumes_is_a_pre_state_formula():
    msgs = issues_of(
        "/*@ behaviour b : assumes Permut{Old,Here}(a, 0, 1); ensures true; @*/\n"
        "void f(int[] a) { }")
    assert any("pre-state" in str(m) for m in msgs)
    msgs = issues_of(
        "/*@ behaviour b : assumes \\old(n) > 0; ensures true; @*/\n"
        "void f(int n) { }")
    assert any("old" in str(m) for m in msgs)


LONG_SUM = "int f(int x) { return " + " + ".join(["x"] * 500) + "; }"


def test_nesting_too_deep_to_typecheck_is_a_type_error():
    unit = parse(LONG_SUM)          # the parser builds a long sum iteratively
    with pytest.raises(TypeCheckFailure) as exc:
        typecheck(unit)
    assert [i.message for i in exc.value.issues] == ["nesting too deep"]
    assert exc.value.issues[0].pos == unit.methods[0].pos
    assert [i.message for i in check_unit(unit)] == ["nesting too deep"]


def test_nesting_too_deep_in_a_lemma_is_reported_at_the_lemma():
    unit = parse("\n/*@ lemma l: \\forall integer q; "
                 + " + ".join(["q"] * 500) + " >= 0; @*/")
    issues = check_unit(unit)
    assert [i.message for i in issues] == ["nesting too deep"]
    assert issues[0].pos == unit.lemmas[0].pos
    assert unit.lemmas[0].pos[0] == 2


@pytest.mark.parametrize("label, wrapper", [
    ("Old", S.OldExpr), ("Pre", S.OldExpr), ("LoopEntry", S.AtLabel),
    ("Here", None)])
def test_permut_lowers_to_an_atom_over_state_reads_of_one_array(label, wrapper):
    text = f"Permut{{{label},Here}}(a, 0, n - 1)"
    f = typed_formula(text, {"a": S.ARRAY_INT, "n": S.INT})
    assert type(f) is S.PermutAtom and f.ty == S.BOOL
    assert f.pos == parse_formula(text).pos
    arr = f.a2              # Here reads the typed array itself
    assert arr == S.Var(name="a", ty=S.ARRAY_INT)
    if wrapper is None:
        assert f.a1 is arr
    else:
        # the wrapper shares the array node, with its position and type;
        # LoopEntry is left for vcgen to tag with its loop
        assert type(f.a1) is wrapper and f.a1.operand is arr
        assert (f.a1.pos, f.a1.ty) == (arr.pos, arr.ty)
    if wrapper is S.AtLabel:
        assert f.a1.label == "LoopEntry"


def test_typed_units_hold_no_permut_predicate():
    from test_vcgen import STATES
    units = [corpus.unit(e.name) for e in corpus.corpus_sources()]
    units.append(typecheck(parse(STATES)))
    for tu in units:
        nodes = [type(n) for n in S.walk(tu.unit)]
        assert S.PermutPred not in nodes, tu.name
    assert S.PermutAtom in nodes        # STATES uses every label
