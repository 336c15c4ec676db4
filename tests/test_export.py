import json
import os
import random
import re

import pytest

from miniwhy import corpus
from miniwhy.errors import ExportError
from miniwhy.export import (ExportDoc, _parse_sexprs, export_sexp, export_smtlib, export_xml,
                            validate, validate_sexp, validate_smtlib,
                            validate_xml)
from miniwhy.vcgen import ObligationSet, generate_obligations

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def lemma_obligations(lemmas_unit):
    return generate_obligations(lemmas_unit)


def toks(s):
    return re.findall(r"[()]|[^\s()]+", s)


def test_smtlib_lemma_matches_golden(lemmas_unit):
    obs = lemma_obligations(lemmas_unit)
    pos = export_smtlib(obs.by_id("lemma:double_div_pos"))
    assert pos.text == golden("double_div_pos.smt2")
    assert "(set-logic AUFNIRA)" in pos.text
    assert "(assert (not (=> (and (> x 0.0) (> y 0.0)) (> (/ x y) 0.0))))" \
        in pos.text
    assert pos.text.endswith("(check-sat)\n")
    zero = export_smtlib(obs.by_id("lemma:double_div_zero"))
    assert zero.text == golden("double_div_zero.smt2")


def test_smtlib_declares_one_symbol_per_free_variable(sqrt_unit):
    obs = generate_obligations(sqrt_unit, "sqrt_newton")
    pres = next(ob for ob in obs if ob.kind == "invariant-preserve")
    doc = export_smtlib(pres)
    assert doc.text == golden("newton_preserve.smt2")
    decls = re.findall(r"\(declare-fun (\S+) \(\)", doc.text)
    assert sorted(decls) == ["c", "epsi", "t@L0"]


def test_smtlib_array_doc(quickselect_unit):
    obs = generate_obligations(quickselect_unit)
    guard = next(ob for ob in obs if ob.kind == "bounds-guard")
    doc = export_smtlib(guard)
    assert doc.text == golden("quickselect_first_bounds_guard.smt2")
    assert "(Array Int Real)" in doc.text
    assert "select" in doc.text


def test_smtlib_permut_axioms(quickselect_unit):
    obs = generate_obligations(quickselect_unit)
    with_permut = next(ob for ob in obs
                       if "Permut" in export_smtlib(ob).text)
    text = export_smtlib(with_permut).text
    assert "(declare-fun Permut.real" in text
    # reflexivity, symmetry, transitivity, single-swap closure
    assert text.count("(assert (forall ((a (Array Int Real))") >= 4


def test_sexp_lemmas_match_paper_shape(lemmas_unit):
    obs = lemma_obligations(lemmas_unit)
    zero = export_sexp(obs.by_id("lemma:double_div_zero"))
    assert zero.text == golden("double_div_zero.lisp.sexp")
    paper = ("(defthm double_div_zero (implies (and (realp x_0_0) (realp y_0)"
             " (and (equal x_0_0 0) (> y_0 0))) (equal (/ x_0_0 y_0) 0)))")
    renamed = [t.replace("x_0_0", "x").replace("y_0", "y") for t in toks(paper)]
    assert toks(zero.text) == renamed

    pos = export_sexp(obs.by_id("lemma:double_div_pos"))
    assert pos.text == golden("double_div_pos.lisp.sexp")
    paper_pos = ("(defthm double_div_pos (implies (and (realp x_13) (realp y)"
                 " (and (> x_13 0) (> y 0))) (> (/ x_13 y) 0)))")
    renamed = [t.replace("x_13", "x") for t in toks(paper_pos)]
    assert toks(pos.text) == renamed


def test_sexp_true_goal_is_canonical_t():
    from miniwhy import syntax as S
    from miniwhy.vcgen import Obligation, Origin
    ob = Obligation(id="t:000:assert", name="t",
                    origin=Origin("m", 1, "assert"), hypotheses=[],
                    hyp_sources=[], goal=S.BoolLit(value=True, ty=S.BOOL))
    doc = export_sexp(ob)
    assert toks(doc.text) == ["(", "defthm", "t_000_assert", "t", ")"]
    validate_sexp(doc)


def test_xml_singleton_golden(lemmas_unit):
    obs = lemma_obligations(lemmas_unit)
    sub = ObligationSet(unit="lemmas", unit_digest=obs.unit_digest,
                        obligations=[obs.by_id("lemma:double_div_zero")])
    doc = export_xml(sub)
    assert doc.text == golden("lemma_zero_singleton.xll.xml")
    assert doc.text.count("<obligation ") == 1
    assert doc.text.count("<forall ") == 2          # two binders, nested
    validate_xml(doc)


def test_xml_empty_set():
    doc = export_xml(ObligationSet(unit="empty", unit_digest="0", obligations=[]))
    validate_xml(doc)
    assert "<obligations unit=\"empty\">" in doc.text
    assert "<obligation " not in doc.text


def test_every_corpus_obligation_exports_and_validates():
    for entry in corpus.corpus_sources():
        tu = corpus.unit(entry.name)
        obset = generate_obligations(tu)
        validate(export_xml(obset))
        for ob in obset:
            validate(export_smtlib(ob))
            validate(export_sexp(ob))


def test_exports_are_byte_stable_across_fresh_pipelines():
    from miniwhy.parser import parse
    from miniwhy.typecheck import typecheck

    def pipeline():
        tu = typecheck(parse(corpus.source_text("sqrt_newton"), "sqrt_newton"))
        obs = generate_obligations(tu)
        smt = "".join(export_smtlib(ob).text for ob in obs)
        xml = export_xml(obs).text
        sexp = "".join(export_sexp(ob).text for ob in obs)
        return smt + xml + sexp

    assert pipeline() == pipeline()


def test_obligation_inventories_match_goldens():
    for entry in corpus.corpus_sources():
        tu = corpus.unit(entry.name)
        obs = generate_obligations(tu)
        inventory = "".join(f"{ob.id}\t{ob.name}\n" for ob in obs)
        assert inventory == golden(f"{entry.name}.obligations.txt"), entry.name


def test_validators_reject_malformed_documents():
    with pytest.raises(ExportError):
        validate_smtlib(ExportDoc("smtlib2", "(assert (oops)"))
    with pytest.raises(ExportError):
        validate_smtlib(ExportDoc("smtlib2", "(set-logic AUFNIRA)\n"))  # no check-sat
    with pytest.raises(ExportError):
        validate_xml(ExportDoc("xll-xml", "<obligations><bad/></obligations>"))
    with pytest.raises(ExportError):
        validate_xml(ExportDoc(
            "xll-xml",
            '<obligations unit="u"><obligation id="i" name="n" kind="assert">'
            "<hypotheses/><goal><mystery/></goal></obligation></obligations>"))
    with pytest.raises(ExportError):
        validate_sexp(ExportDoc("sexp", "(defthm only-two)"))


def test_existential_quantifier_rejected_in_sexp():
    # a negated universal in goal position is an existential form
    from miniwhy import syntax as S
    from miniwhy.vcgen import Obligation, Origin
    inner = S.Forall(binders=[("x", S.REAL)],
                     body=S.BoolLit(value=True, ty=S.BOOL), ty=S.BOOL)
    goal = S.Unary(op="!", operand=inner, ty=S.BOOL)
    ob = Obligation(id="e:000:assert", name="e",
                    origin=Origin("m", 1, "assert"), hypotheses=[],
                    hyp_sources=[], goal=goal)
    with pytest.raises(ExportError):
        export_sexp(ob)


def _reader_inputs():
    """2,000 seeded random strings over the reader's special characters."""
    rng = random.Random(2013)
    alphabet = "ab( )|;\n\t1-."
    for _ in range(2000):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))


def _read(text):
    try:
        return _parse_sexprs(text)
    except ExportError as ex:
        return f"error: {ex}"


def test_sexp_reader_matches_golden():
    lines = [f"{json.dumps(text)}\t{json.dumps(_read(text))}\n"
             for text in _reader_inputs()]
    assert "".join(lines) == golden("sexp.reader.txt")


def _reference_read(text):
    """The reader's results, one character at a time: the reference that
    `_parse_sexprs` must agree with."""
    out = []
    stack = [out]
    tok = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == ";":
            i = text.find("\n", i)
            if i < 0:
                break
            continue
        if c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                return "error: unterminated quoted symbol"
            tok.append(text[i:j + 1])
            i = j + 1
            continue
        if c in "() \t\r\n" and tok:
            stack[-1].append("".join(tok))
            tok = []
        if c == "(":
            stack[-1].append([])
            stack.append(stack[-1][-1])
        elif c == ")":
            stack.pop()
            if not stack:
                return "error: unbalanced ')'"
        elif c not in " \t\r\n":
            tok.append(c)
        i += 1
    if tok:
        stack[-1].append("".join(tok))
    return out if len(stack) == 1 else "error: unbalanced '('"


def test_every_corpus_export_reads_as_the_reference_reads_it():
    texts = []
    for entry in corpus.corpus_sources():
        for ob in generate_obligations(corpus.unit(entry.name)):
            texts += [export_smtlib(ob).text, export_sexp(ob).text]
    assert len(texts) == 154
    for text in texts:
        assert _read(text) == _reference_read(text)
    for text in _reader_inputs():
        assert _read(text) == _reference_read(text), text


# Permut{Old,..} in a requires and a behaviour's assumes: Old and Pre are the
# current state there, so the hypotheses close to single-state formulas
PRE_STATE_PERMUT = """
/*@ requires n >= 0 && Permut{Old,Here}(a, 0, 0);
  @ ensures \\result == n;
  @ behaviour keep :
  @   assumes Permut{Old,Pre}(a, 0, 0);
  @   ensures \\result >= 0;
  @*/
int probe(int[] a, int n) {
    return n;
}
"""


def test_pre_state_hypotheses_export_without_old_state():
    from miniwhy import syntax as S
    from miniwhy.parser import parse
    from miniwhy.typecheck import typecheck
    obs = generate_obligations(typecheck(parse(PRE_STATE_PERMUT)))
    assert [ob.hyp_sources for ob in obs] == [["requires"],
                                              ["requires", "assumes"]]
    for ob in obs:
        assert not any(isinstance(n, S.OldExpr)
                       for f in [ob.goal, *ob.hypotheses] for n in S.walk(f))
        smt = export_smtlib(ob)
        assert "(Permut.int a a 0 0)" in smt.text and "@old" not in smt.text
        sexp = export_sexp(ob)
        assert "(permut a a 0 0)" in sexp.text and "_old" not in sexp.text
        validate(smt)
        validate(sexp)
    xml = export_xml(obs)
    validate(xml)
    assert 'state="old"' not in xml.text
    assert xml.text.count('<permut lo-label="here" hi-label="here">') == 3


def test_exporters_reject_a_goal_with_a_state_node():
    from miniwhy import syntax as S
    from miniwhy.vcgen import Obligation, Origin
    x = S.Var(name="x", ty=S.INT)
    goal = S.Binary(op="<", left=S.OldExpr(operand=x, ty=S.INT), right=x,
                    ty=S.BOOL)
    ob = Obligation(id="s:000:ensures", name="s",
                    origin=Origin("m", 1, "ensures"), hypotheses=[],
                    hyp_sources=[], goal=goal, var_sorts={"x": S.INT})
    for export in (export_smtlib, export_sexp,
                   lambda o: export_xml(ObligationSet("u", "", [o]))):
        with pytest.raises(ExportError, match="cannot render OldExpr"):
            export(ob)


def _node_obligations():
    """Small hand-built obligations that together hold every node class the
    exporters render, each binary and unary operator, and the literal,
    coercion, array, Permut, quantifier and havoc-name cases the corpus
    may not reach."""
    from fractions import Fraction

    from miniwhy import syntax as S
    from miniwhy.vcgen import Obligation, Origin

    def var(name, ty):
        return S.Var(name=name, ty=ty)

    def binop(op, left, right, ty=S.BOOL):
        return S.Binary(op=op, left=left, right=right, ty=ty)

    def num(value):
        if isinstance(value, int):
            return S.IntLit(value=value, ty=S.INT)
        return S.RealLit(text=str(value), value=Fraction(value), ty=S.REAL)

    x, y = var("x", S.INT), var("y", S.INT)
    r, s = var("r", S.REAL), var("s", S.REAL)
    p, q = var("p", S.BOOL), var("q", S.BOOL)
    a, b = var("a", S.ARRAY_INT), var("b", S.ARRAY_REAL)
    i = S.FreshVar(name="i@L2", base="i", loop_id=2, ty=S.INT)
    j, k, t = var("j", S.INT), var("k", S.INT), var("t", S.REAL)

    def forall(binders, body):
        return S.Forall(binders=binders, body=body, ty=S.BOOL)

    def ob(n, kind, hyps, goal, sorts, detail=""):
        return Obligation(id=f"nodes:{n:03d}:{kind}", name=f"nodes{n}",
                          origin=Origin("m", n, kind, detail), hypotheses=hyps,
                          hyp_sources=["requires"] * len(hyps), goal=goal,
                          var_sorts=sorts)

    scalars = {"x": S.INT, "y": S.INT, "r": S.REAL, "s": S.REAL,
               "p": S.BOOL, "q": S.BOOL}
    operators = ob(0, "assert", [
        binop("<", binop("+", x, y, S.INT), binop("-", x, y, S.INT)),
        binop("<=", binop("*", x, y, S.INT), num(3)),
        binop(">", binop("/", r, s, S.REAL), num("1.5")),
        binop(">=", x, num(-3)),
        binop("==", x, y), binop("!=", x, y),
        binop("&&", p, q), binop("||", p, q), binop("==>", p, q),
    ], binop("&&", S.Unary(op="!", operand=p, ty=S.BOOL),
           binop("<", S.Unary(op="-", operand=x, ty=S.INT), y)), scalars)
    literals = ob(1, "ensures", [
        binop("==", r, num(Fraction(1, 3))),
        binop("!=", r, num(Fraction(-5, 4))),
        binop("<", r, num(Fraction(-1, 7))),
        binop("<=", S.Coerce(operand=num(2), ty=S.REAL), r),
        binop("<=", S.Coerce(operand=num(-2), ty=S.REAL), r),
        binop("<", S.Coerce(operand=x, ty=S.REAL), num("3.0")),
        S.BoolLit(value=True, ty=S.BOOL), S.BoolLit(value=False, ty=S.BOOL),
    ], binop("==>", binop(">", r, num("0.0")), binop(">", r, num(Fraction(-7)))), scalars)
    stored = S.Store(array=a, index=i, value=num(5), ty=S.ARRAY_INT)
    arrays = ob(2, "bounds-guard", [
        binop("==", S.Index(array=a, index=i, ty=S.INT), num(0)),
        binop("==", S.Index(array=stored, index=i, ty=S.INT), num(5)),
        binop(">=", S.LengthExpr(array=a, ty=S.INT), num(0)),
        binop("==", S.LengthExpr(array=S.NewArray(elem=S.INT, size=num(3),
                                                ty=S.ARRAY_INT), ty=S.INT), num(3)),
        binop("==", S.Index(array=S.NewArray(elem=S.REAL, size=i, ty=S.ARRAY_REAL),
                          index=num(0), ty=S.REAL), num("0.0")),
        S.PermutAtom(a1=a, a2=stored, lo=num(0), hi=i, ty=S.BOOL),
        S.PermutAtom(a1=b, a2=b, lo=num(0), hi=i, ty=S.BOOL),
    ], binop(">", S.LengthExpr(array=b, ty=S.INT), i),
        {"a": S.ARRAY_INT, "b": S.ARRAY_REAL, "i@L2": S.INT})
    nested_one = forall([("j", S.INT)], binop("<", S.Index(array=a, index=j, ty=S.INT), k))
    nested_two = forall([("j", S.INT), ("t", S.REAL)],
                        binop("==>", binop("<", S.Coerce(operand=j, ty=S.REAL), t),
                            binop("<=", S.Index(array=b, index=j, ty=S.REAL), t)))
    prefixed = forall([("k", S.INT)], forall(
        [("t", S.REAL), ("j", S.INT)],
        binop("==>", nested_one, binop("||", nested_two, binop("<", j, k)))))
    quantifiers = ob(3, "lemma", [nested_one, nested_two], prefixed,
                     {"a": S.ARRAY_INT, "b": S.ARRAY_REAL}, detail="quantified")
    return [operators, literals, arrays, quantifiers]


def _node_documents():
    from miniwhy.vcgen import ObligationSet
    obs = _node_obligations()
    out = []
    for ob in obs:
        for doc in (export_smtlib(ob), export_sexp(ob)):
            validate(doc)
            out.append(f"=== {ob.id} {doc.format}\n{doc.text}")
    doc = export_xml(ObligationSet(unit="nodes", unit_digest="0", obligations=obs))
    validate(doc)
    out.append(f"=== nodes {doc.format}\n{doc.text}")
    return "".join(out)


def test_every_node_class_exports_as_the_golden_says():
    assert _node_documents() == golden("export.nodes.txt")
