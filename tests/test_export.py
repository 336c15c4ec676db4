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
