"""Obligation exporters: SMT-LIB 2, XLL-dialect XML, and defthm-style
s-expressions, each with its own well-formedness validator. All output is
UTF-8 with LF line endings and byte-stable across runs.

Each dialect states its operator vocabulary once, in a module-level table
(`_SMT_OP`, `_XML_BINARY`, `_SEXP_OP`). The XML writer is one function from
a node to its element (`_xml_element`) and one emitter. The XML validator's
table mirrors `schemas/xll.xsd` and is kept apart from the renderer's
tables on purpose: it is the check on them.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction

from . import syntax as S
from .errors import ExportError
from .values import decimal_text


@dataclass
class ExportDoc:
    format: str               # 'smtlib2' | 'xll-xml' | 'sexp'
    text: str
    obligation_ids: tuple = ()


# ---------------------------------------------------------------------------
# shared helpers

def _free_symbols(ob):
    """name -> SemType for the obligation's free symbols, sorted."""
    return dict(sorted(ob.var_sorts.items()))


# ---------------------------------------------------------------------------
# SMT-LIB 2

_SMT_SORT = {"int": "Int", "real": "Real", "bool": "Bool"}
_SMT_OP = {"&&": "and", "||": "or", "==>": "=>", "==": "=", "!=": "distinct",
           "+": "+", "-": "-", "*": "*", "/": "/", "<": "<", "<=": "<=",
           ">": ">", ">=": ">="}


def _smt_sort(ty: S.SemType) -> str:
    if ty.kind == "array":
        return f"(Array Int {_SMT_SORT[ty.elem]})"
    return _SMT_SORT[ty.kind]


def _smt_num(q: Fraction, real: bool) -> str:
    if not real:
        return str(q.numerator) if q >= 0 else f"(- {-q.numerator})"
    if q < 0:
        return f"(- {_smt_num(-q, True)})"
    dec = decimal_text(q)
    if dec is not None:
        return dec
    return f"(/ {q.numerator}.0 {q.denominator}.0)"


class _SmtRenderer:
    def __init__(self):
        self.permut_sorts = set()
        self.length_sorts = set()
        self.newarray_sorts = set()

    def term(self, e: S.Expr) -> str:
        if isinstance(e, S.IntLit):
            return _smt_num(Fraction(e.value), False)
        if isinstance(e, S.RealLit):
            return _smt_num(e.value, True)
        if isinstance(e, S.BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, (S.Var, S.FreshVar)):
            return e.name
        if isinstance(e, S.Coerce):
            if isinstance(e.operand, S.IntLit):
                return _smt_num(Fraction(e.operand.value), True)
            return f"(to_real {self.term(e.operand)})"
        if isinstance(e, S.Unary):
            op = "not" if e.op == "!" else "-"
            return f"({op} {self.term(e.operand)})"
        if isinstance(e, S.Binary):
            return f"({_SMT_OP[e.op]} {self.term(e.left)} {self.term(e.right)})"
        if isinstance(e, S.Index):
            return f"(select {self.term(e.array)} {self.term(e.index)})"
        if isinstance(e, S.Store):
            return (f"(store {self.term(e.array)} {self.term(e.index)} "
                    f"{self.term(e.value)})")
        if isinstance(e, S.LengthExpr):
            elem = e.array.ty.elem if e.array.ty and e.array.ty.kind == "array" else "real"
            self.length_sorts.add(elem)
            return f"(length.{elem} {self.term(e.array)})"
        if isinstance(e, S.NewArray):
            elem = e.elem.kind
            self.newarray_sorts.add(elem)
            self.length_sorts.add(elem)
            return f"(newarray.{elem} {self.term(e.size)})"
        if isinstance(e, S.Forall):
            binders = " ".join(f"({n} {_smt_sort(t)})" for n, t in e.binders)
            return f"(forall ({binders}) {self.term(e.body)})"
        if isinstance(e, S.PermutAtom):
            elem = "real"
            for side in (e.a1, e.a2):
                t = side.ty
                if t is not None and t.kind == "array":
                    elem = t.elem
            self.permut_sorts.add(elem)
            return (f"(Permut.{elem} {self.term(e.a1)} {self.term(e.a2)} "
                    f"{self.term(e.lo)} {self.term(e.hi)})")
        raise ExportError(f"cannot render {type(e).__name__} in SMT-LIB")


def _permut_axioms(elem: str) -> list:
    a = f"(Array Int {_SMT_SORT[elem]})"
    P = f"Permut.{elem}"
    v = _SMT_SORT[elem]
    return [
        f"(declare-fun {P} ({a} {a} Int Int) Bool)",
        f"(assert (forall ((a {a}) (lo Int) (hi Int)) ({P} a a lo hi)))",
        f"(assert (forall ((a {a}) (b {a}) (lo Int) (hi Int)) "
        f"(=> ({P} a b lo hi) ({P} b a lo hi))))",
        f"(assert (forall ((a {a}) (b {a}) (c {a}) (lo Int) (hi Int)) "
        f"(=> (and ({P} a b lo hi) ({P} b c lo hi)) ({P} a c lo hi))))",
        f"(assert (forall ((a {a}) (i Int) (j Int) (lo Int) (hi Int)) "
        f"(=> (and (<= lo i) (<= i hi) (<= lo j) (<= j hi)) "
        f"({P} a (store (store a i (select a j)) j (select a i)) lo hi))))",
    ]


def export_smtlib(ob) -> ExportDoc:
    """One SMT-LIB 2 script per obligation: hypotheses asserted, goal negated;
    `unsat` from a conforming solver means the obligation is valid. The
    goal's universal prefix is opened into declared constants."""
    r = _SmtRenderer()
    goal = ob.goal
    decls = dict(_free_symbols(ob))
    while isinstance(goal, S.Forall):
        for name, ty in goal.binders:
            decls[name] = ty
        goal = goal.body
    hyp_terms = [r.term(h) for h in ob.hypotheses]
    goal_term = r.term(goal)

    lines = [f"; obligation {ob.id}: {ob.name}", "(set-logic AUFNIRA)"]
    for name, ty in sorted(decls.items()):
        lines.append(f"(declare-fun {name} () {_smt_sort(ty)})")
    for elem in sorted(r.length_sorts):
        lines.append(f"(declare-fun length.{elem} ((Array Int {_SMT_SORT[elem]})) Int)")
    for elem in sorted(r.newarray_sorts):
        zero = "0.0" if elem == "real" else "0"
        lines.append(f"(declare-fun newarray.{elem} (Int) (Array Int {_SMT_SORT[elem]}))")
        lines.append(f"(assert (forall ((n Int) (i Int)) "
                     f"(= (select (newarray.{elem} n) i) {zero})))")
        lines.append(f"(assert (forall ((n Int)) "
                     f"(= (length.{elem} (newarray.{elem} n)) n)))")
    for elem in sorted(r.permut_sorts):
        lines.extend(_permut_axioms(elem))
    for h in hyp_terms:
        lines.append(f"(assert {h})")
    lines.append(f"(assert (not {goal_term}))")
    lines.append("(check-sat)")
    return ExportDoc(format="smtlib2", text="\n".join(lines) + "\n",
                     obligation_ids=(ob.id,))


# a `;` comment to the end of its line, a parenthesis, a token (which may
# hold `|...|` quoted parts, blanks included), or an unmatched `|`; the
# blanks between them are skipped
_SEXP_LEXEME = re.compile(r";[^\n]*|[()]|(?:[^ \t\r\n();|]+|\|[^|]*\|)+|\|")


def _parse_sexprs(text: str) -> list:
    """Minimal s-expression reader used by the format validators."""
    out = []
    stack = [out]
    for lexeme in _SEXP_LEXEME.findall(text):
        if lexeme == "(":
            new = []
            stack[-1].append(new)
            stack.append(new)
        elif lexeme == ")":
            stack.pop()
            if not stack:
                raise ExportError("unbalanced ')'")
        elif lexeme == "|":
            raise ExportError("unterminated quoted symbol")
        elif lexeme[0] != ";":
            stack[-1].append(lexeme)
    if len(stack) != 1:
        raise ExportError("unbalanced '('")
    return out


_SMT_COMMANDS = {"set-logic", "declare-fun", "declare-const", "assert", "check-sat"}


def validate_smtlib(doc: ExportDoc) -> bool:
    forms = _parse_sexprs(doc.text)
    if not forms:
        raise ExportError("empty SMT-LIB document")
    saw_check = False
    for form in forms:
        if not isinstance(form, list) or not form:
            raise ExportError(f"top-level form is not a command: {form!r}")
        head = form[0]
        if head not in _SMT_COMMANDS:
            raise ExportError(f"unknown SMT-LIB command {head!r}")
        if head == "check-sat":
            saw_check = True
        if head == "assert" and len(form) != 2:
            raise ExportError("assert takes exactly one term")
        if head == "declare-fun" and len(form) != 4:
            raise ExportError("declare-fun takes name, arguments, sort")
    if not saw_check:
        raise ExportError("missing (check-sat)")
    return True


# ---------------------------------------------------------------------------
# XLL-dialect XML

def _xml_escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


_CMP_NAME = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_ARITH_NAME = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def _attrs(*pairs) -> str:
    """` k="v"` for each pair, the values escaped."""
    return "".join(f' {k}="{_xml_escape(str(v))}"' for k, v in pairs)


# binary operator -> (tag, rendered attributes)
_XML_BINARY = {"==>": ("implies", ""), "&&": ("and", ""), "||": ("or", ""),
               **{op: ("cmp", _attrs(("op", n))) for op, n in _CMP_NAME.items()},
               **{op: ("arith", _attrs(("op", n))) for op, n in _ARITH_NAME.items()}}
_UNARY_TAG = {"!": "not", "-": "neg"}
_BOOL_ATTRS = {False: ' type="bool" value="false"', True: ' type="bool" value="true"'}
_PERMUT_ATTRS = _attrs(("lo-label", "here"), ("hi-label", "here"))


def _xml_element(e: S.Expr) -> tuple:
    """(tag, rendered attributes, child formulas) of e's element."""
    if isinstance(e, S.Binary):
        tag, attrs = _XML_BINARY[e.op]
        return tag, attrs, (e.left, e.right)
    if isinstance(e, (S.Var, S.FreshVar)):
        return "var", f' name="{_xml_escape(e.name)}" state="here"', ()
    # a number's text needs no escaping
    if isinstance(e, S.IntLit):
        return "const", f' type="int" value="{e.value}"', ()
    if isinstance(e, S.RealLit):
        dec = decimal_text(e.value)
        val = dec if dec is not None else f"{e.value.numerator}/{e.value.denominator}"
        return "const", f' type="real" value="{val}"', ()
    if isinstance(e, S.BoolLit):
        return "const", _BOOL_ATTRS[e.value], ()
    if isinstance(e, S.Coerce):
        if isinstance(e.operand, S.IntLit):
            return "const", f' type="real" value="{e.operand.value}.0"', ()
        return "coerce", "", (e.operand,)
    if isinstance(e, S.Unary):
        return _UNARY_TAG[e.op], "", (e.operand,)
    if isinstance(e, S.Index):
        return "select", "", (e.array, e.index)
    if isinstance(e, S.Store):
        return "store", "", (e.array, e.index, e.value)
    if isinstance(e, S.LengthExpr):
        return "length", "", (e.array,)
    if isinstance(e, S.NewArray):
        return "newarray", _attrs(("elem", e.elem.kind)), (e.size,)
    if isinstance(e, S.Forall):
        (name, ty), rest = e.binders[0], e.binders[1:]
        body = S.Forall(binders=rest, body=e.body, ty=S.BOOL) if rest else e.body
        return "forall", _attrs(("var", name), ("type", ty)), (body,)
    if isinstance(e, S.PermutAtom):
        return "permut", _PERMUT_ATTRS, (e.a1, e.a2, e.lo, e.hi)
    raise ExportError(f"cannot render {type(e).__name__} in XML")


class _XmlRenderer:
    def __init__(self, out: list, indent: int):
        self.out = out
        self.depth = indent

    def open(self, tag: str, attrs: str = ""):
        self.out.append(f"{'  ' * self.depth}<{tag}{attrs}>")
        self.depth += 1

    def close(self, tag: str):
        self.depth -= 1
        self.out.append(f"{'  ' * self.depth}</{tag}>")

    def formula(self, e: S.Expr):
        tag, attrs, children = _xml_element(e)
        if not children:
            self.out.append(f"{'  ' * self.depth}<{tag}{attrs}/>")
            return
        self.open(tag, attrs)
        for child in children:
            self.formula(child)
        self.close(tag)


def export_xml(obset) -> ExportDoc:
    """One XML document for a whole obligation set."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<obligations unit="{_xml_escape(obset.unit)}">']
    r = _XmlRenderer(out, 1)
    for ob in obset.obligations:
        r.open("obligation", _attrs(("id", ob.id), ("name", ob.name), ("kind", ob.kind)))
        r.open("hypotheses")
        for h in ob.hypotheses:
            r.formula(h)
        r.close("hypotheses")
        r.open("goal")
        r.formula(ob.goal)
        r.close("goal")
        r.close("obligation")
    out.append("</obligations>")
    return ExportDoc(format="xll-xml", text="\n".join(out) + "\n",
                     obligation_ids=tuple(ob.id for ob in obset.obligations))


# formula elements mirrored from schemas/xll.xsd: tag -> (attributes,
# number of children)
_FORMULA_ELEMENTS = {
    "forall": (("var", "type"), 1), "implies": ((), 2), "and": ((), 2),
    "or": ((), 2), "not": ((), 1), "neg": ((), 1), "cmp": (("op",), 2),
    "arith": (("op",), 2), "var": (("name", "state"), 0),
    "const": (("type", "value"), 0), "select": ((), 2), "store": ((), 3),
    "length": ((), 1), "coerce": ((), 1), "permut": (("lo-label", "hi-label"), 4),
    "newarray": (("elem",), 1),
}


def validate_xml(doc: ExportDoc) -> bool:
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


# ---------------------------------------------------------------------------
# defthm-style s-expressions

_SEXP_TYPE_PRED = {"int": "integerp", "real": "realp", "bool": "booleanp"}
# the operators not written as themselves; `!=` is (not (equal ...))
_SEXP_OP = {"==": "equal", "!=": "equal", "&&": "and", "||": "or", "==>": "implies"}


def _sexp_name(oid: str) -> str:
    return oid.replace(":", "_").replace("@", "_at_")


def _sexp_num(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"(/ {q.numerator} {q.denominator})"


def _sexp_term(e: S.Expr) -> str:
    if isinstance(e, S.IntLit):
        return _sexp_num(Fraction(e.value))
    if isinstance(e, S.RealLit):
        return _sexp_num(e.value)
    if isinstance(e, S.BoolLit):
        return "t" if e.value else "nil"
    if isinstance(e, S.Var):
        return e.name
    if isinstance(e, S.FreshVar):
        return _sexp_name(e.name)
    if isinstance(e, S.Coerce):
        return _sexp_term(e.operand)
    if isinstance(e, S.Unary):
        if e.op == "!":
            return f"(not {_sexp_term(e.operand)})"
        return f"(- {_sexp_term(e.operand)})"
    if isinstance(e, S.Binary):
        text = f"({_SEXP_OP.get(e.op, e.op)} {_sexp_term(e.left)} {_sexp_term(e.right)})"
        return f"(not {text})" if e.op == "!=" else text
    if isinstance(e, S.Index):
        return f"(select {_sexp_term(e.array)} {_sexp_term(e.index)})"
    if isinstance(e, S.Store):
        return (f"(store {_sexp_term(e.array)} {_sexp_term(e.index)} "
                f"{_sexp_term(e.value)})")
    if isinstance(e, S.LengthExpr):
        return f"(len {_sexp_term(e.array)})"
    if isinstance(e, S.NewArray):
        return f"(newarray {_sexp_term(e.size)})"
    if isinstance(e, S.PermutAtom):
        return (f"(permut {_sexp_term(e.a1)} {_sexp_term(e.a2)} "
                f"{_sexp_term(e.lo)} {_sexp_term(e.hi)})")
    if isinstance(e, S.Forall):
        # inner universal (not part of the prefix): rendered in-dialect
        names = " ".join(n for n, _ in e.binders)
        preds = " ".join(f"({_SEXP_TYPE_PRED[t.kind]} {n})" for n, t in e.binders)
        return f"(forall ({names}) (implies (and {preds}) {_sexp_term(e.body)}))"
    raise ExportError(f"cannot render {type(e).__name__} as an s-expression")


def _check_prefix_universal(goal: S.Expr):
    """The quantifier prefix must be universal-only: a negated universal at
    the prefix is an existential, which has no defthm form. Quantifiers
    nested deeper render as opaque terms of the dialect."""
    negs = 0
    g = goal
    while True:
        if isinstance(g, S.Unary) and g.op == "!":
            negs += 1
            g = g.operand
            continue
        if isinstance(g, S.Forall):
            if negs % 2 == 1:
                raise ExportError(
                    "existential quantification (negated forall) has no defthm form")
            g = g.body
            negs = 0
            continue
        return


def export_sexp(ob) -> ExportDoc:
    """(defthm <id> (implies (and <type-hyps> <hyps>) <goal>)).

    The goal's universal prefix becomes type hypotheses; an implication goal
    keeps its antecedent as a single nested (and ...) form. An existential
    prefix (negated universal) is an unsupported form.
    """
    _check_prefix_universal(ob.goal)
    goal = ob.goal
    typehyps = []
    for name, ty in _free_symbols(ob).items():
        if ty.kind == "array":
            typehyps.append(f"(true-listp {_sexp_name(name)})")
        else:
            typehyps.append(f"({_SEXP_TYPE_PRED[ty.kind]} {_sexp_name(name)})")
    while isinstance(goal, S.Forall):
        for name, ty in goal.binders:
            if ty.kind not in _SEXP_TYPE_PRED:
                raise ExportError(f"unsupported binder sort {ty}")
            typehyps.append(f"({_SEXP_TYPE_PRED[ty.kind]} {name})")
        goal = goal.body
    items = list(typehyps)
    for h in ob.hypotheses:
        items.append(_sexp_term(h))
    if isinstance(goal, S.Binary) and goal.op == "==>":
        items.append(_sexp_term(goal.left))
        consequent = _sexp_term(goal.right)
    else:
        consequent = _sexp_term(goal)
    name = _sexp_name(ob.id) if ob.kind != "lemma" else ob.origin.detail
    body = f"(implies (and {' '.join(items)}) {consequent})" if items \
        else consequent
    text = f"(defthm {name}\n {body})\n"
    return ExportDoc(format="sexp", text=text, obligation_ids=(ob.id,))


def validate_sexp(doc: ExportDoc) -> bool:
    forms = _parse_sexprs(doc.text)
    if len(forms) != 1:
        raise ExportError("expected exactly one defthm form")
    form = forms[0]
    if not (isinstance(form, list) and len(form) == 3 and form[0] == "defthm"
            and isinstance(form[1], str)):
        raise ExportError("not a (defthm <name> <body>) form")
    return True


VALIDATORS = {"smtlib2": validate_smtlib, "xll-xml": validate_xml,
              "sexp": validate_sexp}


def validate(doc: ExportDoc) -> bool:
    """Run the format's own well-formedness check."""
    return VALIDATORS[doc.format](doc)
