import copy
import gc
import json
import os
import random
import re
import weakref
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from miniwhy import corpus
from miniwhy import syntax as S
from miniwhy.errors import ExportError
from miniwhy.export import (_FORMULA_ELEMENTS, ExportDoc, _parse_sexprs, export_sexp,
                            export_smtlib, export_xml, validate, validate_sexp,
                            validate_xml)
from miniwhy.prover import prove_internal
from miniwhy.vcgen import Obligation, ObligationSet, Origin, generate_obligations

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


def _xml_doc(element: str) -> str:
    """An XML document whose one element under the root is element."""
    return f'<obligations unit="u">{element}</obligations>'


def _xml_obligation(parts=None, goal='<const type="bool" value="true"/>',
                    attrs=' id="i" name="n" kind="assert"'):
    """An <obligation> element: its attributes and its parts, or a goal
    formula under empty hypotheses, as given."""
    if parts is None:
        parts = f"<hypotheses/><goal>{goal}</goal>"
    return f"<obligation{attrs}>{parts}</obligation>"


# (format, document, the ExportError's message): one row per raise of the
# three validators and of the s-expression reader they share
VALIDATOR_FAULTS = [
    ("xll-xml", '<obligation unit="u"/>', "root element must be <obligations>, got <obligation>"),
    ("xll-xml", '<obligations xmlns="urn:x" unit="u"></obligations>',
     "root element must be <obligations>, got <{urn:x}obligations>"),
    ("xll-xml", "<obligations><bad/></obligations>", "<obligations> is missing the unit attribute"),
    ("xll-xml", _xml_doc("<goal/>"), "unexpected element <goal> under <obligations>"),
    ("xll-xml", _xml_doc(_xml_obligation(attrs=' name="n" kind="assert"')),
     "<obligation> is missing attribute 'id'"),
    ("xll-xml", _xml_doc(_xml_obligation(attrs=' id="i" kind="assert"')),
     "<obligation> is missing attribute 'name'"),
    ("xll-xml", _xml_doc(_xml_obligation(attrs=' id="i" name="n"')),
     "<obligation> is missing attribute 'kind'"),
    ("xll-xml", _xml_doc(_xml_obligation("<goal/><hypotheses/>")),
     "<obligation> must contain <hypotheses> then <goal>"),
    ("xll-xml", _xml_doc(_xml_obligation("<hypotheses/>")),
     "<obligation> must contain <hypotheses> then <goal>"),
    ("xll-xml", _xml_doc(_xml_obligation('<hypotheses/><goal><const type="int" value="1"/>'
                                         "</goal><goal/>")),
     "<obligation> must contain <hypotheses> then <goal>"),
    ("xll-xml", _xml_doc(_xml_obligation(goal="")), "<goal> must contain exactly one formula"),
    ("xll-xml", _xml_doc(_xml_obligation(goal='<var name="p" state="here"/>' * 2)),
     "<goal> must contain exactly one formula"),
    ("xll-xml", _xml_doc(_xml_obligation(goal="<mystery/>")),
     "unknown formula element <mystery>"),
    ("xll-xml", _xml_doc(_xml_obligation("<hypotheses><mystery/></hypotheses>"
                                         '<goal><const type="int" value="1"/></goal>')),
     "unknown formula element <mystery>"),
    ("xll-xml", _xml_doc(_xml_obligation(goal='<var name="p"/>')),
     "<var> is missing attribute 'state'"),
    ("xll-xml", _xml_doc(_xml_obligation(goal='<var name="p" state="here" op="lt"/>')),
     "<var> has unexpected attribute 'op'"),
    ("xll-xml", _xml_doc(_xml_obligation(
        goal='<var xmlns:q="urn:q" name="p" state="here" q:op="lt"/>')),
     "<var> has unexpected attribute '{urn:q}op'"),
    ("xll-xml", _xml_doc(_xml_obligation(goal='<not><var name="p" state="here"/>'
                                              '<var name="q" state="here"/></not>')),
     "<not> needs 1 children, has 2"),
    ("xll-xml", '<obligations unit="u">', "not well-formed XML: no element found: line 1, column 22"),
    ("xll-xml", _xml_doc(_xml_obligation(goal="<not></and>")),
     "not well-formed XML: mismatched tag: line 1, column 90"),
    ("smtlib2", "", "empty SMT-LIB document"),
    ("smtlib2", "; a comment\n", "empty SMT-LIB document"),
    ("smtlib2", "x\n(check-sat)", "top-level form is not a command: 'x'"),
    ("smtlib2", "()\n(check-sat)", "top-level form is not a command: []"),
    ("smtlib2", "(push 1)\n(check-sat)", "unknown SMT-LIB command 'push'"),
    ("smtlib2", "((assert x))\n(check-sat)", "unknown SMT-LIB command ['assert', 'x']"),
    ("smtlib2", "(assert)\n(check-sat)", "assert takes exactly one term"),
    ("smtlib2", "(assert p q)\n(check-sat)", "assert takes exactly one term"),
    ("smtlib2", "(declare-fun x Int)\n(check-sat)", "declare-fun takes name, arguments, sort"),
    ("smtlib2", "(set-logic AUFNIRA)\n", "missing (check-sat)"),
    ("smtlib2", "(check-sat))", "unbalanced ')'"),
    ("smtlib2", "(assert (oops)", "unbalanced '('"),
    ("smtlib2", "(assert |x)\n(check-sat)", "unterminated quoted symbol"),
    ("sexp", "", "expected exactly one defthm form"),
    ("sexp", "(defthm a t)\n(defthm b t)", "expected exactly one defthm form"),
    ("sexp", "defthm", "not a (defthm <name> <body>) form"),
    ("sexp", "(defthm only-two)", "not a (defthm <name> <body>) form"),
    ("sexp", "(defun f x)", "not a (defthm <name> <body>) form"),
    ("sexp", "(defthm (f) t)", "not a (defthm <name> <body>) form"),
    ("sexp", "(defthm a t))", "unbalanced ')'"),
]


@pytest.mark.parametrize("fmt, text, message", VALIDATOR_FAULTS,
                         ids=[f"{fmt}-{i}" for i, (fmt, _, _) in enumerate(VALIDATOR_FAULTS)])
def test_each_validator_fault_is_named(fmt, text, message):
    with pytest.raises(ExportError, match=f"^{re.escape(message)}$"):
        validate(ExportDoc(fmt, text))
    # the reference checker names each XML fault alike
    if fmt == "xll-xml":
        with pytest.raises(ExportError, match=f"^{re.escape(message)}$"):
            _reference_validate_xml(ExportDoc(fmt, text))


def _reference_validate_xml(doc: ExportDoc) -> bool:
    """The XML check over an ElementTree: the reference that the streaming
    `validate_xml` must agree with."""
    try:
        root = ET.fromstring(doc.text)
    except ET.ParseError as ex:
        raise ExportError(f"not well-formed XML: {ex}") from None
    if root.tag != "obligations":
        raise ExportError(f"root element must be <obligations>, got <{root.tag}>")

    def check_formula(el):
        if el.tag not in _FORMULA_ELEMENTS:
            raise ExportError(f"unknown formula element <{el.tag}>")
        need, arity = _FORMULA_ELEMENTS[el.tag]
        for a in need:
            if a not in el.attrib:
                raise ExportError(f"<{el.tag}> is missing attribute {a!r}")
        for a in el.attrib:
            if a not in need:
                raise ExportError(f"<{el.tag}> has unexpected attribute {a!r}")
        if len(el) != arity:
            raise ExportError(f"<{el.tag}> needs {arity} children, has {len(el)}")
        for ch in el:
            check_formula(ch)

    if "unit" not in root.attrib:
        raise ExportError("<obligations> is missing the unit attribute")
    for ob in root:
        if ob.tag != "obligation":
            raise ExportError(f"unexpected element <{ob.tag}> under <obligations>")
        for a in ("id", "name", "kind"):
            if a not in ob.attrib:
                raise ExportError(f"<obligation> is missing attribute {a!r}")
        if [ch.tag for ch in ob] != ["hypotheses", "goal"]:
            raise ExportError("<obligation> must contain <hypotheses> then <goal>")
        hyps, goal = ob[0], ob[1]
        for ch in hyps:
            check_formula(ch)
        if len(goal) != 1:
            raise ExportError("<goal> must contain exactly one formula")
        check_formula(goal[0])
    return True


_START_TAG = re.compile(r"( *)<([\w-]+)((?: [\w:-]+=\"[^\"]*\")*)(/?)>$")
_TAG_POOL = [*_FORMULA_ELEMENTS, "obligations", "obligation", "hypotheses", "goal",
             "mystery"]


def _corpus_xml_documents() -> list:
    """The XML export of each corpus unit's obligations; quickselect's
    763 000-character document is split into one document per
    obligation."""
    docs = []
    for entry in corpus.corpus_sources():
        obset = generate_obligations(corpus.unit(entry.name))
        if len(obset.obligations) > 20:
            docs += [export_xml(ObligationSet(obset.unit, "0", [ob])).text for ob in obset]
        else:
            docs.append(export_xml(obset).text)
    return docs


def _mutate(rng, text) -> str:
    """text with one seeded edit: a line dropped, an element renamed (or
    only its start tag), an attribute added or dropped, an obligation's
    <hypotheses> and <goal> swapped, or a namespace declared."""
    lines = text.split("\n")
    starts = [i for i, line in enumerate(lines) if _START_TAG.match(line)]
    i = rng.choice(starts)
    indent, tag, attrs, empty = _START_TAG.match(lines[i]).groups()
    edit = rng.choice(["drop line", "rename", "rename start", "add attribute",
                       "drop attribute", "swap", "xmlns"])
    if edit == "drop line":
        del lines[rng.randrange(len(lines))]
    elif edit in ("rename", "rename start"):
        new = rng.choice(_TAG_POOL)
        lines[i] = f"{indent}<{new}{attrs}{empty}>"
        if edit == "rename" and not empty:
            end = lines.index(f"{indent}</{tag}>", i)
            lines[end] = f"{indent}</{new}>"
    elif edit == "add attribute":
        name = rng.choice(["op", "name", "unit", "state", "extra"])
        lines[i] = f"{indent}<{tag}{attrs} {name}=\"x\"{empty}>"
    elif edit == "drop attribute":
        pairs = re.findall(r" [\w:-]+=\"[^\"]*\"", attrs)
        if pairs:
            pairs.pop(rng.randrange(len(pairs)))
        lines[i] = f"{indent}<{tag}{''.join(pairs)}{empty}>"
    elif edit == "swap":
        opened = [j for j, line in enumerate(lines) if line == "    <hypotheses>"]
        if opened:
            h = rng.choice(opened)
            g = lines.index("    <goal>", h)
            end = lines.index("    </goal>", g)
            lines[h:end + 1] = lines[g:end + 1] + lines[h:g]
    else:
        decl = rng.choice([' xmlns="urn:x"', ' xmlns:p="urn:p" p:op="lt"'])
        lines[i] = f"{indent}<{tag}{decl}{attrs}{empty}>"
    return "\n".join(lines)


def _fault(check, text):
    """The message of the ExportError check raises on text, None if it
    accepts text."""
    try:
        check(ExportDoc("xll-xml", text))
    except ExportError as ex:
        return str(ex)
    return None


def test_the_streaming_xml_check_agrees_with_the_element_tree_check():
    """500 seeded mutations of the corpus XML exports: both checks accept
    or reject each alike, with the same message, except that the
    streaming check stops at the first fault in document order, so a
    structural fault before a syntax fault is the one it names."""
    rng = random.Random(2048)
    docs = _corpus_xml_documents()
    seen = {"accepted": 0, "same fault": 0, "earlier fault": 0}
    for _ in range(500):
        text = _mutate(rng, rng.choice(docs))
        reference, streaming = _fault(_reference_validate_xml, text), _fault(validate_xml, text)
        if streaming == reference:
            seen["accepted" if reference is None else "same fault"] += 1
            continue
        # the reference names a syntax fault; the first lines before it
        # hold the structural fault the streaming check names
        assert reference.startswith("not well-formed XML: "), (text, reference, streaming)
        assert streaming is not None and not streaming.startswith("not well-formed")
        line = int(re.search(r": line (\d+), column \d+$", reference)[1])
        assert _fault(validate_xml, "\n".join(text.split("\n")[:line - 1])) == streaming
        seen["earlier fault"] += 1
    assert all(seen.values()), seen


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
    assert [ob.hyp_sources for ob in obs] == [("requires",),
                                              ("requires", "assumes")]
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


# ---------------------------------------------------------------------------
# the render memos: the set's for SMT-LIB and s-expressions, one per call
# for XML

def _residue_ids() -> dict:
    """unit name -> ids of its unproved obligations, per corpus unit."""
    return {entry.name: {ob.id for ob in generate_obligations(corpus.unit(entry.name))
                         if prove_internal(ob).status == "unknown"}
            for entry in corpus.corpus_sources()}


def _residue(name, ids) -> list:
    """The obligations of a fresh set of the unit whose ids are in ids."""
    return [ob for ob in generate_obligations(corpus.unit(name)) if ob.id in ids]


def _xml_blocks(obs) -> dict:
    """obligation id -> the lines of its element in the XML document of obs."""
    text = export_xml(ObligationSet("u", "0", obs)).text
    blocks = re.findall(r"(?ms)^  <obligation .*?^  </obligation>$", text)
    assert len(blocks) == len(obs)
    return dict(zip((ob.id for ob in obs), blocks))


def _documents(obs) -> dict:
    """obligation id -> (SMT-LIB text, s-expression text, XML element), the
    obligations exported in the order given."""
    xml = _xml_blocks(obs)
    return {ob.id: (export_smtlib(ob).text, export_sexp(ob).text, xml[ob.id])
            for ob in obs}


def test_every_residue_exports_alike_in_any_order_and_from_unshared_copies():
    shuffle = random.Random(40)
    residues = _residue_ids()
    assert sum(map(len, residues.values())) == 38
    for name, ids in residues.items():
        residue = _residue(name, ids)
        reference = _documents(residue)
        assert all(ob._renders for ob in residue), name
        for order in ("reversed", "shuffled", "copied"):
            again = _residue(name, ids)
            if order == "reversed":
                again = again[::-1]
            elif order == "shuffled":
                shuffle.shuffle(again)
            else:
                # each copy holds nodes and a memo of its own
                again = [copy.deepcopy(ob) for ob in again]
                assert not any(set(map(id, S.walk(a.goal))) & set(map(id, S.walk(b.goal)))
                               for a, b in zip(again, again[1:]))
            assert _documents(again) == reference, (name, order)


def test_a_memo_entry_holding_another_node_is_not_read(sqrt_unit):
    """An entry answers only for the node it holds: a memo copied with
    its obligation is keyed by the ids of the original nodes."""
    ob = generate_obligations(sqrt_unit).obligations[0]
    reference = export_smtlib(replace(ob)).text, export_sexp(replace(ob)).text
    bogus = S.Memo()
    for node in S.walk(ob.goal):
        bogus.put(node, ("bogus", set()), "smtlib2")
        bogus.put(node, "bogus", "sexp")
    # the copy's entries hold copies of the nodes, under the originals' ids
    ob = replace(ob, tables=(S.Memo(), copy.deepcopy(bogus)))
    assert (export_smtlib(ob).text, export_sexp(ob).text) == reference


def _shared_node_obligations():
    """Pairs of obligations whose goals hold one \\length, Permut or
    new T[n] node object, with the declarations it needs."""
    a = S.Var(name="a", ty=S.ARRAY_REAL)
    b = S.Var(name="b", ty=S.ARRAY_INT)
    n = S.Var(name="n", ty=S.INT)
    zero = S.IntLit(value=0, ty=S.INT)
    length = S.LengthExpr(array=a, ty=S.INT)
    permut = S.PermutAtom(a1=b, a2=b, lo=zero, hi=n, ty=S.BOOL)
    fresh = S.NewArray(elem=S.INT, size=n, ty=S.ARRAY_INT)
    sorts = {"a": S.ARRAY_REAL, "b": S.ARRAY_INT, "n": S.INT}

    def ob(i, goal):
        return Obligation(id=f"s:{i:03d}:assert", name=f"s{i}",
                          origin=Origin("m", i, "assert"), hypotheses=[],
                          hyp_sources=[], goal=goal, var_sorts=sorts)

    def cmp(op, left, right):
        return S.Binary(op=op, left=left, right=right, ty=S.BOOL)

    yield [ob(0, cmp(">=", length, zero)), ob(1, cmp("<", n, length))], [
        "(declare-fun length.real ((Array Int Real)) Int)"]
    yield [ob(0, permut), ob(1, cmp("&&", cmp("<", zero, n), permut))], [
        "(declare-fun Permut.int ((Array Int Int) (Array Int Int) Int Int) Bool)"]
    yield [ob(0, cmp("==", S.LengthExpr(array=fresh, ty=S.INT), n)),
           ob(1, cmp("==", S.Index(array=fresh, index=zero, ty=S.INT), zero))], [
        "(declare-fun length.int ((Array Int Int)) Int)",
        "(declare-fun newarray.int (Int) (Array Int Int))"]


def test_a_shared_node_is_declared_in_every_document_whatever_goes_first():
    for obs, declarations in _shared_node_obligations():
        # each rendered alone, through a memo of its own
        alone = [export_smtlib(replace(ob)).text for ob in obs]
        for order in (obs, obs[::-1]):
            tables = S.Memo(), S.Memo()
            texts = {ob.id: export_smtlib(replace(ob, tables=tables)).text
                     for ob in order}
            assert [texts[ob.id] for ob in obs] == alone
            for text in alone:
                assert all(d + "\n" in text for d in declarations), text


def _check_indentation(text: str):
    """Every element line is indented two blanks per enclosing element."""
    depth = 0
    for line in text.splitlines()[1:]:
        closing = line.lstrip().startswith("</")
        depth -= closing
        assert line == "  " * depth + line.lstrip(), line
        depth += not closing and not line.endswith("/>")
    assert depth == 0


def test_one_node_at_two_xml_depths_is_indented_for_each():
    x, y = S.Var(name="x", ty=S.INT), S.Var(name="y", ty=S.INT)
    shared = S.Binary(op="<", left=x, right=y, ty=S.BOOL)
    deeper = S.Binary(op="&&", left=shared,
                      right=S.Unary(op="!", operand=shared, ty=S.BOOL), ty=S.BOOL)
    quantified = S.Forall(binders=[("z", S.INT), ("w", S.INT)], body=deeper, ty=S.BOOL)
    sorts = {"x": S.INT, "y": S.INT}
    obs = [Obligation(id=f"d:{i:03d}:assert", name="d", origin=Origin("m", i, "assert"),
                      hypotheses=hyps, hyp_sources=["requires"] * len(hyps), goal=goal,
                      var_sorts=sorts)
           for i, (hyps, goal) in enumerate([([shared], deeper), ([deeper], quantified),
                                             ([quantified, shared], shared)])]
    doc = export_xml(ObligationSet("d", "0", obs))
    validate_xml(doc)
    _check_indentation(doc.text)
    # the same formulas as trees, which share no node
    trees = export_xml(ObligationSet("d", "0", [copy.deepcopy(ob) for ob in obs]))
    assert doc.text == trees.text


def test_the_render_memo_dies_with_its_set(quickselect_unit):
    obset = generate_obligations(quickselect_unit)
    assert all(ob._renders is obset._renders for ob in obset)
    for ob in obset:
        export_smtlib(ob)
        export_sexp(ob)
    assert obset._renders
    # a copy renders through a memo of its own
    assert len(replace(obset.obligations[0])._renders) == 0
    # a probe that only the memo holds dies with it
    probe = _Probe()
    obset._renders.put(probe, True)
    held = weakref.ref(probe)
    obs = list(obset)
    del obset, obs, ob, probe
    gc.collect()
    assert held() is None


class _Probe:
    pass
