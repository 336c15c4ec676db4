"""Recursive-descent parser producing SourceUnit ASTs.

Grammar highlights:
  unit   := (lemma | method)*
  lemma  := '/*@' 'lemma' IDENT ':' formula ';' '@*/'
  method := spec? rettype IDENT '(' params? ')' block
  spec   := '/*@' ('requires' f ';')* ('ensures' f ';')* behaviour* '@*/'

Relational chains (a <= b < c) are desugared to conjunctions at parse time.
Formula-only constructs (\\old, \\result, \\forall, \\length, Permut, ==>)
are rejected in program expressions.
"""

from __future__ import annotations

from .errors import ParseError
from .lexer import Token, decimal_value, tokenize
from . import syntax as S

CHAIN_OPS = {"<", "<=", ">", ">="}
REL_OPS = CHAIN_OPS | {"==", "!="}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.in_formula = False

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("symbol", "keyword")

    def at_kind(self, kind: str) -> bool:
        return self.cur.kind == kind

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"found {self.cur.text!r}", expected=(text,))
        return self.advance()

    def fail(self, msg: str, expected=(), tok: Token | None = None):
        t = tok or self.cur
        raise ParseError(msg, t.line, t.col, tuple(expected))

    def pos(self) -> tuple:
        return (self.cur.line, self.cur.col)

    # -- unit --------------------------------------------------------------

    def parse_unit(self, name: str) -> S.SourceUnit:
        lemmas = []
        methods = []
        while not self.at_kind("eof"):
            if self.at("/*@") and self.toks[self.i + 1].text == "lemma":
                lemmas.append(self.parse_lemma())
            else:
                methods.append(self.parse_method())
        return S.SourceUnit(name=name, lemmas=lemmas, methods=methods)

    def parse_lemma(self) -> S.LemmaDecl:
        p = self.pos()
        self.expect("/*@")
        self.expect("lemma")
        name = self.ident()
        self.expect(":")
        stmt = self.formula()
        self.expect(";")
        self.expect("@*/")
        return S.LemmaDecl(name=name, statement=stmt, pos=p)

    def ident(self) -> str:
        if not self.at_kind("ident"):
            self.fail(f"expected identifier, found {self.cur.text!r}", expected=("identifier",))
        return self.advance().text

    # -- method ------------------------------------------------------------

    def parse_method(self) -> S.MethodDecl:
        p = self.pos()
        spec = self.parse_spec() if self.at("/*@") else S.MethodSpec(
            requires=S.BoolLit(value=True), ensures=S.BoolLit(value=True))
        ret = self.return_type()
        name = self.ident()
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                pt = self.type_name()
                pn = self.ident()
                params.append((pn, pt))
                if not self.at(","):
                    break
                self.advance()
        self.expect(")")
        body = self.block()
        return S.MethodDecl(name=name, params=params, return_type=ret,
                            spec=spec, body=body, pos=p)

    def parse_spec(self) -> S.MethodSpec:
        self.expect("/*@")
        requires = []
        ensures = []
        behaviours = []
        while self.at("requires"):
            self.advance()
            requires.append(self.formula())
            self.expect(";")
        while self.at("ensures"):
            self.advance()
            ensures.append(self.formula())
            self.expect(";")
        while self.at("behaviour"):
            self.advance()
            bname = self.ident()
            self.expect(":")
            assumes = S.BoolLit(value=True)
            bens = S.BoolLit(value=True)
            if self.at("assumes"):
                self.advance()
                assumes = self.formula()
                self.expect(";")
            if self.at("ensures"):
                self.advance()
                bens = self.formula()
                self.expect(";")
            behaviours.append(S.Behaviour(name=bname, assumes=assumes, ensures=bens))
        self.expect("@*/")
        return S.MethodSpec(requires=S.conj(requires), ensures=S.conj(ensures),
                            behaviours=behaviours)

    def return_type(self) -> S.SemType:
        if self.at("void"):
            self.advance()
            return S.VOID
        return self.type_name()

    def type_name(self) -> S.SemType:
        for kw, ty in (("int", S.INT), ("real", S.REAL), ("bool", S.BOOL)):
            if self.at(kw):
                self.advance()
                if self.at("["):
                    if ty is S.BOOL:
                        self.fail("bool arrays are not supported")
                    self.advance()
                    self.expect("]")
                    return S.array_of(ty)
                return ty
        self.fail(f"expected a type, found {self.cur.text!r}",
                  expected=("int", "real", "bool"))

    # -- statements ----------------------------------------------------------

    def block(self) -> S.Block:
        p = self.pos()
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.statement())
        self.expect("}")
        return S.Block(stmts=stmts, pos=p)

    def statement(self) -> S.Stmt:
        p = self.pos()
        if self.at("{"):
            return self.block()
        if self.at("/*@"):
            return self.annotation_statement()
        if self.at("if"):
            self.advance()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            then = self.statement()
            orelse = None
            if self.at("else"):
                self.advance()
                orelse = self.statement()
            return S.If(cond=cond, then=then, orelse=orelse, pos=p)
        if self.at("while"):
            self.fail("loop without a loop_invariant annotation")
        if self.at("do"):
            self.fail("loop without a loop_invariant annotation")
        if self.at("return"):
            self.advance()
            expr = None
            if not self.at(";"):
                expr = self.expression()
            self.expect(";")
            return S.Return(expr=expr, pos=p)
        if self.at("int") or self.at("real") or self.at("bool"):
            ty = self.type_name()
            name = self.ident()
            init = None
            if self.at("="):
                self.advance()
                init = self.expression()
            self.expect(";")
            return S.VarDecl(name=name, ty=ty, init=init, pos=p)
        if self.at_kind("ident"):
            name = self.advance().text
            if self.at("["):
                self.advance()
                idx = self.expression()
                self.expect("]")
                self.expect("=")
                val = self.expression()
                self.expect(";")
                return S.ArrayAssign(name=name, index=idx, expr=val, pos=p)
            self.expect("=")
            val = self.expression()
            self.expect(";")
            return S.Assign(name=name, expr=val, pos=p)
        self.fail(f"expected a statement, found {self.cur.text!r}")

    def annotation_statement(self) -> S.Stmt:
        p = self.pos()
        self.expect("/*@")
        if self.at("assert"):
            self.advance()
            f = self.formula()
            self.expect(";")
            self.expect("@*/")
            return S.AssertStmt(formula=f, pos=p)
        if self.at("ghost"):
            self.advance()
            ty = self.type_name()
            name = self.ident()
            self.expect("=")
            init = self.formula_expr()
            self.expect(";")
            self.expect("@*/")
            return S.VarDecl(name=name, ty=ty, init=init, ghost=True, pos=p)
        if self.at("set"):
            self.advance()
            name = self.ident()
            self.expect("=")
            val = self.formula_expr()
            self.expect(";")
            self.expect("@*/")
            return S.Assign(name=name, expr=val, ghost=True, pos=p)
        if self.at("loop_invariant"):
            anchor = self.cur
            invs = []
            while self.at("loop_invariant"):
                self.advance()
                invs.append(self.formula())
                self.expect(";")
            variant = None
            if self.at("loop_variant"):
                self.advance()
                variant = self.formula_expr()
                self.expect(";")
            self.expect("@*/")
            annot = S.LoopAnnot(invariant=S.conj(invs), variant=variant)
            if self.at("while"):
                self.advance()
                self.expect("(")
                cond = self.expression()
                self.expect(")")
                body = self.statement()
                return S.While(annot=annot, cond=cond, body=body, pos=p)
            if self.at("do"):
                self.advance()
                body = self.statement()
                self.expect("while")
                self.expect("(")
                cond = self.expression()
                self.expect(")")
                self.expect(";")
                return S.DoWhile(annot=annot, body=body, cond=cond, pos=p)
            self.fail("loop annotation must be followed by 'while' or 'do'",
                      tok=anchor)
        self.fail(f"unexpected annotation {self.cur.text!r}",
                  expected=("assert", "ghost", "set", "loop_invariant"))

    # -- expressions ---------------------------------------------------------

    def expression(self) -> S.Expr:
        """Program expression: two-state constructs and ==> are rejected."""
        saved = self.in_formula
        self.in_formula = False
        try:
            return self.or_expr()
        finally:
            self.in_formula = saved

    def formula(self) -> S.Expr:
        saved = self.in_formula
        self.in_formula = True
        try:
            return self.implication()
        finally:
            self.in_formula = saved

    def formula_expr(self) -> S.Expr:
        """Expression in annotation context (ghost init, loop_variant):
        \\old etc. allowed, but it is a term, not an implication."""
        saved = self.in_formula
        self.in_formula = True
        try:
            return self.or_expr()
        finally:
            self.in_formula = saved

    def implication(self) -> S.Expr:
        left = self.or_expr()
        if self.at("==>"):
            p = self.pos()
            self.advance()
            right = self.implication()      # right associative
            return S.Binary(op="==>", left=left, right=right, pos=p)
        return left

    def or_expr(self) -> S.Expr:
        left = self.and_expr()
        while self.at("||"):
            p = self.pos()
            self.advance()
            left = S.Binary(op="||", left=left, right=self.and_expr(), pos=p)
        return left

    def and_expr(self) -> S.Expr:
        left = self.rel_expr()
        while self.at("&&"):
            p = self.pos()
            self.advance()
            left = S.Binary(op="&&", left=left, right=self.rel_expr(), pos=p)
        return left

    def rel_expr(self) -> S.Expr:
        left = self.add_expr()
        if self.cur.text in ("==", "!="):
            op = self.advance().text
            right = self.add_expr()
            node = S.Binary(op=op, left=left, right=right, pos=left.pos)
            if self.cur.text in REL_OPS:
                self.fail(f"{op!r} cannot be chained")
            return node
        if self.cur.text in CHAIN_OPS:
            links = [left]
            ops = []
            while self.cur.text in CHAIN_OPS:
                ops.append(self.advance().text)
                links.append(self.add_expr())
            parts = [S.Binary(op=o, left=links[k], right=links[k + 1], pos=links[k].pos)
                     for k, o in enumerate(ops)]
            return S.conj(parts)
        return left

    def add_expr(self) -> S.Expr:
        left = self.mul_expr()
        while self.cur.text in ("+", "-") and self.cur.kind == "symbol":
            p = self.pos()
            op = self.advance().text
            left = S.Binary(op=op, left=left, right=self.mul_expr(), pos=p)
        return left

    def mul_expr(self) -> S.Expr:
        left = self.unary_expr()
        while self.cur.text in ("*", "/") and self.cur.kind == "symbol":
            p = self.pos()
            op = self.advance().text
            left = S.Binary(op=op, left=left, right=self.unary_expr(), pos=p)
        return left

    def unary_expr(self) -> S.Expr:
        p = self.pos()
        if self.at("-"):
            self.advance()
            return S.Unary(op="-", operand=self.unary_expr(), pos=p)
        if self.at("!"):
            self.advance()
            return S.Unary(op="!", operand=self.unary_expr(), pos=p)
        return self.postfix_expr()

    def postfix_expr(self) -> S.Expr:
        e = self.primary()
        while self.at("["):
            p = self.pos()
            self.advance()
            idx = self.expression() if not self.in_formula else self.formula_expr()
            self.expect("]")
            e = S.Index(array=e, index=idx, pos=p)
        return e

    def require_formula(self, what: str):
        if not self.in_formula:
            self.fail(f"{what} is only allowed inside annotations")

    def primary(self) -> S.Expr:
        p = self.pos()
        t = self.cur
        if t.kind == "int":
            self.advance()
            return S.IntLit(value=int(t.text), pos=p)
        if t.kind == "real":
            self.advance()
            return S.RealLit(text=t.text, value=decimal_value(t.text), pos=p)
        if self.at("true"):
            self.advance()
            return S.BoolLit(value=True, pos=p)
        if self.at("false"):
            self.advance()
            return S.BoolLit(value=False, pos=p)
        if self.at("("):
            self.advance()
            e = self.implication() if self.in_formula else self.or_expr()
            self.expect(")")
            return e
        if self.at("new"):
            self.advance()
            if self.at("int"):
                elem = S.INT
            elif self.at("real"):
                elem = S.REAL
            else:
                self.fail("expected element type after 'new'", expected=("int", "real"))
            self.advance()
            self.expect("[")
            size = self.expression()
            self.expect("]")
            return S.NewArray(elem=elem, size=size, pos=p)
        if t.kind == "backslash":
            self.require_formula(f"'\\{t.text}'")
            self.advance()
            if t.text == "old":
                self.expect("(")
                e = self.formula_expr()
                self.expect(")")
                return S.OldExpr(operand=e, pos=p)
            if t.text == "result":
                return S.ResultExpr(pos=p)
            if t.text == "length":
                self.expect("(")
                e = self.formula_expr()
                self.expect(")")
                return S.LengthExpr(array=e, pos=p)
            if t.text == "forall":
                bty = self.binder_type()
                names = [self.ident()]
                while self.at_kind("ident") or self.at(","):
                    if self.at(","):
                        self.advance()
                    names.append(self.ident())
                self.expect(";")
                body = self.formula()
                return S.Forall(binders=[(nm, bty) for nm in names], body=body, pos=p)
        if self.at("Permut"):
            self.require_formula("'Permut'")
            self.advance()
            self.expect("{")
            l1 = self.label()
            self.expect(",")
            l2 = self.label()
            self.expect("}")
            self.expect("(")
            arr = self.formula_expr()
            self.expect(",")
            lo = self.formula_expr()
            self.expect(",")
            hi = self.formula_expr()
            self.expect(")")
            return S.PermutPred(label1=l1, label2=l2, array=arr, lo=lo, hi=hi, pos=p)
        if t.kind == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                args = []
                if not self.at(")"):
                    while True:
                        args.append(self.formula_expr() if self.in_formula
                                    else self.expression())
                        if not self.at(","):
                            break
                        self.advance()
                self.expect(")")
                if self.in_formula:
                    return S.PredCall(name=t.text, args=args, pos=p)
                return S.Call(name=t.text, args=args, pos=p)
            return S.Var(name=t.text, pos=p)
        self.fail(f"expected an expression, found {t.text!r}")

    def binder_type(self) -> S.SemType:
        if self.at("integer") or self.at("int"):
            self.advance()
            return S.INT
        if self.at("real"):
            self.advance()
            return S.REAL
        self.fail("expected binder type", expected=("integer", "real"))

    def label(self) -> str:
        if self.at_kind("ident") and self.cur.text in S.LABELS:
            return self.advance().text
        self.fail(f"expected a state label, found {self.cur.text!r}",
                  expected=S.LABELS)


def parse(text: str, name: str = "unit") -> S.SourceUnit:
    """Parse MiniJML source text into a SourceUnit.

    Raises ParseError with line/column and the expected-token set on failure,
    also for nesting too deep for the recursive descent.
    """
    p = _Parser(tokenize(text))
    try:
        return p.parse_unit(name)
    except RecursionError:
        raise ParseError("nesting too deep", p.cur.line, p.cur.col) from None
