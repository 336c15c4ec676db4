from fractions import Fraction

import pytest

from miniwhy import syntax as S
from miniwhy.errors import ParseError
from miniwhy.lexer import decimal_value, tokenize
from miniwhy.parser import parse

TRANSLATE = """
/*@ ensures x == \\old(x) + dx && y == \\old(y) + dy;
  @*/
void translate(real x, real y, real dx, real dy) {
    x = x + dx;
    y = y + dy;
}
"""


def test_translate_listing_parses():
    u = parse(TRANSLATE)
    assert len(u.methods) == 1
    m = u.methods[0]
    assert m.name == "translate"
    assert [t for _, t in m.params] == [S.REAL] * 4
    ens = m.spec.ensures
    # conjunction of two equalities, both mentioning \old
    assert isinstance(ens, S.Binary) and ens.op == "&&"
    assert ens.left.op == "==" and ens.right.op == "=="
    olds = [n for n in S.walk(ens) if isinstance(n, S.OldExpr)]
    assert len(olds) == 2


def test_empty_unit():
    u = parse("")
    assert u.methods == [] and u.lemmas == []


def test_loop_invariant_outside_loop_is_an_error():
    src = TRANSLATE.replace("x = x + dx;",
                            "/*@ loop_invariant x > 0; @*/ x = x + dx;")
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert "loop_invariant" in str(exc.value) or "loop annotation" in str(exc.value)


def test_while_requires_annotation():
    with pytest.raises(ParseError):
        parse("void m(int n) { while (n > 0) { n = n - 1; } }")


@pytest.mark.parametrize("kw", ["import", "extends", "implements", "package",
                                "native", "class", "interface"])
def test_java_isms_cannot_parse(kw):
    with pytest.raises(ParseError):
        parse(f"void m(int {kw}) {{ }}")
    with pytest.raises(ParseError):
        parse(f"{kw} foo;")


def test_float_suffix_literals_rejected():
    with pytest.raises(ParseError) as exc:
        parse("void m() { real f = 50f; }")
    assert "suffix" in str(exc.value)


def test_hex_float_constants_rejected():
    with pytest.raises(ParseError):
        parse("void m() { real f = 0x1.fffffeP+127d; }")


def test_annotation_at_signs_are_continuation_markers():
    src = ("/*@ requires n >= 0;\n"
           "  @ ensures \\result >= 0;\n"
           "  @*/\n"
           "int id(int n) { return n; }\n")
    u = parse(src)
    assert u.methods[0].spec.requires is not None


def test_chained_comparisons_desugar_to_conjunction():
    u = parse("/*@ requires 1 <= n <= m; @*/ void f(int n, int m) { }")
    req = u.methods[0].spec.requires
    assert isinstance(req, S.Binary) and req.op == "&&"
    assert req.left.op == "<=" and req.right.op == "<="


def test_equality_cannot_chain():
    with pytest.raises(ParseError):
        parse("/*@ requires a == b == c; @*/ void f(int a, int b, int c) { }")


def test_scientific_literal_value():
    assert decimal_value("1.2E-7") == decimal_value("0.00000012")
    u = parse("void m() { real eps = 1.2E-7; }")
    lit = u.methods[0].body.stmts[0].init
    assert isinstance(lit, S.RealLit) and lit.text == "1.2E-7"


@pytest.mark.parametrize("literal", ["\u00b2", "1\u00b2", "1.\u00b2", "1e\u00b2"])
def test_digits_that_are_not_decimal_are_a_parse_error(literal):
    # str.isdigit holds for a superscript, which int() rejects
    with pytest.raises(ParseError):
        parse(f"/*@ lemma l: {literal} > 0; @*/")


def test_decimal_digits_of_any_script_are_read():
    u = parse("/*@ lemma l: \u0661.\u0665 > 0.0; @*/")    # Arabic-Indic 1.5
    assert u.lemmas[0].statement.left.value == Fraction(3, 2)


def test_identifiers_are_ascii():
    # x\u00b2 is no SMT-LIB simple symbol: the scanner reads x and stops
    with pytest.raises(ParseError) as exc:
        parse("int f(int x\u00b2) { return 0; }")
    assert "unexpected character" in str(exc.value)
    assert exc.value.col == 12


def test_lemma_parses():
    u = parse("/*@ lemma pos : \\forall real x y; x > 0 && y > 0 ==> x / y > 0; @*/")
    assert len(u.lemmas) == 1
    lem = u.lemmas[0]
    assert lem.name == "pos"
    assert isinstance(lem.statement, S.Forall)
    assert [n for n, _ in lem.statement.binders] == ["x", "y"]


def test_permut_labels():
    src = ("/*@ ensures Permut{Old,Here}(a, 0, n - 1); @*/\n"
           "void f(int[] a, int n) { }")
    ens = parse(src).methods[0].spec.ensures
    assert isinstance(ens, S.PermutPred)
    assert (ens.label1, ens.label2) == ("Old", "Here")
    with pytest.raises(ParseError):
        parse(src.replace("Old", "Elsewhere"))


def test_two_state_constructs_rejected_in_program_code():
    with pytest.raises(ParseError):
        parse("void f(real x) { x = \\old(x); }")
    with pytest.raises(ParseError):
        parse("int f(int x) { return \\result; }")


def test_parse_error_carries_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse("void f(int a { }")
    assert exc.value.line == 1
    assert exc.value.expected


def test_do_while_parses():
    src = ("void f(int n) {\n"
           "    /*@ loop_invariant n >= 0; loop_variant n; @*/\n"
           "    do { n = n - 1; } while (n > 0);\n"
           "}")
    body = parse(src).methods[0].body.stmts
    assert isinstance(body[0], S.DoWhile)
    assert body[0].annot.variant is not None


def test_ghost_statements_parse():
    src = ("void f(int n) {\n"
           "    /*@ ghost int g = 0; @*/\n"
           "    /*@ set g = g + 1; @*/\n"
           "}")
    stmts = parse(src).methods[0].body.stmts
    assert isinstance(stmts[0], S.VarDecl) and stmts[0].ghost
    assert isinstance(stmts[1], S.Assign) and stmts[1].ghost


def test_tokenize_positions():
    toks = tokenize("int x;\nreal y;")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert toks[3].line == 2


DEEP_PARENS = "int f(int x) { return " + "(" * 1000 + "x" + ")" * 1000 + "; }"


def test_nesting_too_deep_to_parse_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse(DEEP_PARENS)
    assert "nesting too deep" in str(exc.value)
    assert exc.value.line == 1
