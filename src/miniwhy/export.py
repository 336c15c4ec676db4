"""Obligation exporters: SMT-LIB 2, XLL-dialect XML, and defthm-style
s-expressions, each with its own well-formedness validator. All output is
UTF-8 with LF line endings and byte-stable across runs.

The SMT-LIB and s-expression validators read their document with one
s-expression reader (`_parse_sexprs`) and check the forms it returns. The
XML validator reads its document in one streaming `pyexpat` pass that
builds no tree: it checks each element as it opens and counts its children
as it closes, so it names the first fault in document order.

Each dialect states its operator vocabulary once, in a module-level table
(`_SMT_OP`, `_XML_BINARY`, `_SEXP_OP`). The XML writer is one function from
a node to its element (`_xml_element`) and one emitter. The XML validator's
table mirrors `schemas/xll.xsd` and is kept apart from the renderer's
tables on purpose: it is the check on them.

The obligations of a set share subterms (invariants, path conditions), so
every writer renders each node object once and reuses its text, through a
`syntax.Memo`:

- SMT-LIB and s-expressions render through the obligation's `_renders`,
  the set's memo for a set member, else the obligation's own, which keeps
  each node's text per format name and, for SMT-LIB, the (kind, elem)
  declarations its subtree needs, which every document that reads the
  entry adds to its own; the memo dies with the set.
- XML renders through a memo of its own call, which keeps each node's
  span of element lines in the document per depth, since indentation
  depends on depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from xml.parsers import expat

from . import syntax as S
from .errors import ExportError
from .values import decimal_text


@dataclass
class ExportDoc:
    format: str               # 'smtlib2' | 'xll-xml' | 'sexp'
    text: str


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


def _smt_term(e: S.Expr, term) -> tuple:
    """e's text and the declarations its subtree needs, a frozenset of
    (kind, elem) pairs of kind `length`, `newarray` or `permut`; its
    children's come from term, through the obligation's memo (see the
    module docstring)."""
    if isinstance(e, S.IntLit):
        return _smt_num(Fraction(e.value), False), frozenset()
    if isinstance(e, S.RealLit):
        return _smt_num(e.value, True), frozenset()
    if isinstance(e, S.BoolLit):
        return "true" if e.value else "false", frozenset()
    if isinstance(e, (S.Var, S.FreshVar)):
        return e.name, frozenset()
    if isinstance(e, S.Coerce):
        if isinstance(e.operand, S.IntLit):
            return _smt_num(Fraction(e.operand.value), True), frozenset()
        x, needs = term(e.operand)
        return f"(to_real {x})", needs
    if isinstance(e, S.Unary):
        x, needs = term(e.operand)
        return f"({'not' if e.op == '!' else '-'} {x})", needs
    if isinstance(e, S.Binary):
        (l, ln), (r, rn) = term(e.left), term(e.right)
        return f"({_SMT_OP[e.op]} {l} {r})", ln | rn
    if isinstance(e, S.Index):
        (a, an), (i, i_n) = term(e.array), term(e.index)
        return f"(select {a} {i})", an | i_n
    if isinstance(e, S.Store):
        (a, an), (i, i_n), (v, vn) = term(e.array), term(e.index), term(e.value)
        return f"(store {a} {i} {v})", an | i_n | vn
    if isinstance(e, S.LengthExpr):
        elem = e.array.ty.elem if e.array.ty and e.array.ty.kind == "array" else "real"
        a, needs = term(e.array)
        return f"(length.{elem} {a})", needs | {("length", elem)}
    if isinstance(e, S.NewArray):
        elem = e.elem.kind
        n, needs = term(e.size)
        return f"(newarray.{elem} {n})", needs | {("newarray", elem), ("length", elem)}
    if isinstance(e, S.Forall):
        binders = " ".join(f"({n} {_smt_sort(t)})" for n, t in e.binders)
        body, needs = term(e.body)
        return f"(forall ({binders}) {body})", needs
    if isinstance(e, S.PermutAtom):
        elem = "real"
        for side in (e.a1, e.a2):
            t = side.ty
            if t is not None and t.kind == "array":
                elem = t.elem
        (a1, n1), (a2, n2), (lo, n3), (hi, n4) = (term(e.a1), term(e.a2),
                                                  term(e.lo), term(e.hi))
        return (f"(Permut.{elem} {a1} {a2} {lo} {hi})",
                n1 | n2 | n3 | n4 | {("permut", elem)})
    raise ExportError(f"cannot render {type(e).__name__} in SMT-LIB")


def _needed(needs: set, kind: str) -> list:
    """The sorted element sorts of the declarations of `kind` in needs."""
    return sorted(elem for k, elem in needs if k == kind)


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
    goal = ob.goal
    decls = dict(_free_symbols(ob))
    while isinstance(goal, S.Forall):
        for name, ty in goal.binders:
            decls[name] = ty
        goal = goal.body
    *hyps, (goal_term, needs) = ob._renders.cached([*ob.hypotheses, goal], _smt_term,
                                                   "smtlib2")
    needs = needs.union(*(n for _, n in hyps))

    lines = [f"; obligation {ob.id}: {ob.name}", "(set-logic AUFNIRA)"]
    for name, ty in sorted(decls.items()):
        lines.append(f"(declare-fun {name} () {_smt_sort(ty)})")
    for elem in _needed(needs, "length"):
        lines.append(f"(declare-fun length.{elem} ((Array Int {_SMT_SORT[elem]})) Int)")
    for elem in _needed(needs, "newarray"):
        zero = "0.0" if elem == "real" else "0"
        lines.append(f"(declare-fun newarray.{elem} (Int) (Array Int {_SMT_SORT[elem]}))")
        lines.append(f"(assert (forall ((n Int) (i Int)) "
                     f"(= (select (newarray.{elem} n) i) {zero})))")
        lines.append(f"(assert (forall ((n Int)) "
                     f"(= (length.{elem} (newarray.{elem} n)) n)))")
    for elem in _needed(needs, "permut"):
        lines.extend(_permut_axioms(elem))
    for h, _ in hyps:
        lines.append(f"(assert {h})")
    lines.append(f"(assert (not {goal_term}))")
    lines.append("(check-sat)")
    return ExportDoc(format="smtlib2", text="\n".join(lines) + "\n")


# a `;` comment to the end of its line, a parenthesis, a token (which may
# hold `|...|` quoted parts, blanks included), or an unmatched `|`; the
# blanks between them are skipped
_SEXP_LEXEME = re.compile(r";[^\n]*|[()]|[^ \t\r\n();|]+(?:\|[^|]*\|[^ \t\r\n();|]*)*"
                          r"|(?:\|[^|]*\|[^ \t\r\n();|]*)+|\|")


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


_SMT_COMMANDS = ("set-logic", "declare-fun", "declare-const", "assert", "check-sat")


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
        # (start, end) per node and depth: out[start:end] are the node's
        # element lines at that depth
        self.memo = S.Memo()

    def open(self, tag: str, attrs: str = ""):
        self.out.append(f"{'  ' * self.depth}<{tag}{attrs}>")
        self.depth += 1

    def close(self, tag: str):
        self.depth -= 1
        self.out.append(f"{'  ' * self.depth}</{tag}>")

    def formula(self, e: S.Expr):
        out, depth = self.out, self.depth
        pad = "  " * depth
        if type(e) not in S.CHILDREN:
            # a leaf is one line, written faster than looked up
            tag, attrs, _ = _xml_element(e)
            out.append(f"{pad}<{tag}{attrs}/>")
            return
        hit = self.memo.get(e, depth)
        if hit is not None:
            out.extend(out[hit[0]:hit[1]])
            return
        start = len(out)
        tag, attrs, children = _xml_element(e)
        if not children:
            out.append(f"{pad}<{tag}{attrs}/>")
        else:
            out.append(f"{pad}<{tag}{attrs}>")
            self.depth = depth + 1
            for child in children:
                self.formula(child)
            self.depth = depth
            out.append(f"{pad}</{tag}>")
        self.memo.put(e, (start, len(out)), depth)


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
    return ExportDoc(format="xll-xml", text="\n".join(out) + "\n")


# formula elements mirrored from schemas/xll.xsd: tag -> (attributes, as
# dict keys, ordered and compared as sets, number of children)
_FORMULA_ELEMENTS = {tag: (dict.fromkeys(need).keys(), arity) for tag, (need, arity) in {
    "forall": (("var", "type"), 1), "implies": ((), 2), "and": ((), 2),
    "or": ((), 2), "not": ((), 1), "neg": ((), 1), "cmp": (("op",), 2),
    "arith": (("op",), 2), "var": (("name", "state"), 0),
    "const": (("type", "value"), 0), "select": ((), 2), "store": ((), 3),
    "length": ((), 1), "coerce": ((), 1), "permut": (("lo-label", "hi-label"), 4),
    "newarray": (("elem",), 1),
}.items()}
# the fault of an element with the wrong number of children, by tag
_COUNT_FAULTS = {"obligation": "<obligation> must contain <hypotheses> then <goal>",
                 "goal": "<goal> must contain exactly one formula"}


def _name(tag: str) -> str:
    """A name as ElementTree prints it: the parser's `uri}local` is `{uri}local`."""
    return "{" + tag if "}" in tag else tag


def validate_xml(doc: ExportDoc) -> bool:
    # one [tag, children seen, children needed or None] per open element
    stack = [["", 0, None]]         # the document's: its one child is the root

    def start(tag, attrs):
        parent = stack[-1]
        parent[1] += 1
        if parent[0] == "":
            if tag != "obligations":
                raise ExportError(f"root element must be <obligations>, got <{_name(tag)}>")
            if "unit" not in attrs:
                raise ExportError("<obligations> is missing the unit attribute")
            stack.append([tag, 0, None])
        elif parent[0] == "obligations":
            if tag != "obligation":
                raise ExportError(f"unexpected element <{_name(tag)}> under <obligations>")
            for a in ("id", "name", "kind"):
                if a not in attrs:
                    raise ExportError(f"<obligation> is missing attribute {a!r}")
            stack.append([tag, 0, 2])
        elif parent[0] == "obligation":
            if parent[1] > 2 or tag != ("hypotheses", "goal")[parent[1] - 1]:
                raise ExportError(_COUNT_FAULTS["obligation"])
            stack.append([tag, 0, 1 if tag == "goal" else None])
        else:
            check = _FORMULA_ELEMENTS.get(tag)
            if check is None:
                raise ExportError(f"unknown formula element <{_name(tag)}>")
            need, arity = check
            if attrs.keys() != need:
                a = next((a for a in need if a not in attrs), None)
                if a is not None:
                    raise ExportError(f"<{tag}> is missing attribute {a!r}")
                a = next(a for a in attrs if a not in need)
                raise ExportError(f"<{tag}> has unexpected attribute {_name(a)!r}")
            stack.append([tag, 0, arity])

    def end(_):
        tag, seen, needed = stack.pop()
        if needed is not None and seen != needed:
            raise ExportError(_COUNT_FAULTS.get(tag)
                              or f"<{tag}> needs {needed} children, has {seen}")

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler, parser.EndElementHandler = start, end
    try:
        parser.Parse(doc.text, True)
    except expat.ExpatError as ex:
        raise ExportError(f"not well-formed XML: {ex}") from None
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


def _sexp_term(e: S.Expr, term) -> str:
    """e's text; its children's come from term, through the obligation's
    memo (see the module docstring)."""
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
        return term(e.operand)
    if isinstance(e, S.Unary):
        if e.op == "!":
            return f"(not {term(e.operand)})"
        return f"(- {term(e.operand)})"
    if isinstance(e, S.Binary):
        text = f"({_SEXP_OP.get(e.op, e.op)} {term(e.left)} {term(e.right)})"
        return f"(not {text})" if e.op == "!=" else text
    if isinstance(e, S.Index):
        return f"(select {term(e.array)} {term(e.index)})"
    if isinstance(e, S.Store):
        return f"(store {term(e.array)} {term(e.index)} {term(e.value)})"
    if isinstance(e, S.LengthExpr):
        return f"(len {term(e.array)})"
    if isinstance(e, S.NewArray):
        return f"(newarray {term(e.size)})"
    if isinstance(e, S.PermutAtom):
        return f"(permut {term(e.a1)} {term(e.a2)} {term(e.lo)} {term(e.hi)})"
    if isinstance(e, S.Forall):
        # inner universal (not part of the prefix): rendered in-dialect
        names = " ".join(n for n, _ in e.binders)
        preds = " ".join(f"({_SEXP_TYPE_PRED[t.kind]} {n})" for n, t in e.binders)
        return f"(forall ({names}) (implies (and {preds}) {term(e.body)}))"
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
    implication = isinstance(goal, S.Binary) and goal.op == "==>"
    parts = (goal.left, goal.right) if implication else (goal,)
    *terms, consequent = ob._renders.cached([*ob.hypotheses, *parts], _sexp_term, "sexp")
    items = typehyps + terms
    name = _sexp_name(ob.id) if ob.kind != "lemma" else ob.origin.detail
    body = f"(implies (and {' '.join(items)}) {consequent})" if items \
        else consequent
    text = f"(defthm {name}\n {body})\n"
    return ExportDoc(format="sexp", text=text)


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
