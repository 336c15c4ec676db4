"""Typechecker: resolves identifiers, infers expression types, inserts
explicit int->real widenings, enforces ghost/program separation and the
structural rules (\\result only in ensures of non-void methods, calls only
in whole-right-hand-side positions, definite returns). Each
Permut{L1,L2}(a, lo, hi) becomes a PermutAtom over a read in each labelled
state, so no later stage meets the labels.

typecheck() returns a TypedUnit holding a rewritten copy of the AST: the
parsed tree is never mutated, so round-trip laws over surface syntax are
unaffected. check_unit() returns the issue list instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import syntax as S
from .errors import TypeCheckFailure

# definition of the predefined predicate is_sqrt(r, v):
#   r >= 0 && r*r >= v && r*r - v < 1.2E-7
SQRT_EPS_TEXT = "1.2E-7"


@dataclass(frozen=True)
class TypeIssue:
    message: str
    pos: tuple = (0, 0)

    def __str__(self):
        return f"{self.pos[0]}:{self.pos[1]}: {self.message}"


@dataclass
class TypedUnit:
    """Typechecked, rewritten unit: coercions explicit, predicates expanded."""
    unit: S.SourceUnit                      # the rewritten tree
    source: S.SourceUnit                    # the tree typecheck() was given
    method_index: dict = field(default_factory=dict)

    @property
    def name(self):
        return self.unit.name

    def method(self, name: str) -> S.MethodDecl:
        return self.method_index[name]


# contexts in which a formula is typechecked
CTX_REQUIRES = "requires"
CTX_ENSURES = "ensures"
CTX_ASSUMES = "assumes"
CTX_INVARIANT = "invariant"
CTX_VARIANT = "variant"
CTX_ASSERT = "assert"
CTX_LEMMA = "lemma"
CTX_PROGRAM = "program"
CTX_GHOST = "ghost"

TWO_STATE = {CTX_ENSURES, CTX_INVARIANT, CTX_ASSERT, CTX_GHOST, CTX_VARIANT}


class _Scope:
    def __init__(self, parent=None):
        self.parent = parent
        self.vars: dict[str, tuple[S.SemType, bool]] = {}   # name -> (type, ghost)

    def lookup(self, name):
        s = self
        while s is not None:
            if name in s.vars:
                return s.vars[name]
            s = s.parent
        return None

    def declare(self, name, ty, ghost):
        self.vars[name] = (ty, ghost)


class _Checker:
    def __init__(self, unit: S.SourceUnit):
        self.unit = unit
        self.issues: list[TypeIssue] = []
        self.methods = {m.name: m for m in unit.methods}
        self.method: S.MethodDecl | None = None

    def error(self, msg, node):
        pos = getattr(node, "pos", (0, 0))
        self.issues.append(TypeIssue(msg, pos))

    # -- entry ---------------------------------------------------------------

    def run(self) -> S.SourceUnit:
        seen = set()
        for m in self.unit.methods:
            if m.name in seen:
                self.error(f"duplicate method name {m.name!r}", m)
            seen.add(m.name)
        seen = set()
        for l in self.unit.lemmas:
            if l.name in seen:
                self.error(f"duplicate lemma name {l.name!r}", l)
            seen.add(l.name)
        lemmas = [self.check_lemma(l) for l in self.unit.lemmas]
        methods = [self.check_method(m) for m in self.unit.methods]
        return S.SourceUnit(name=self.unit.name, lemmas=lemmas, methods=methods)

    def check_lemma(self, lem: S.LemmaDecl) -> S.LemmaDecl:
        scope = _Scope()
        body = self.formula(lem.statement, scope, CTX_LEMMA)
        if not isinstance(lem.statement, S.Forall):
            self.error(f"lemma {lem.name!r} must be a universally quantified formula", lem)
        return S.LemmaDecl(name=lem.name, statement=body, pos=lem.pos)

    def check_method(self, m: S.MethodDecl) -> S.MethodDecl:
        self.method = m
        scope = _Scope()
        seen = set()
        for name, ty in m.params:
            if name in seen:
                self.error(f"duplicate parameter {name!r}", m)
            seen.add(name)
            scope.declare(name, ty, False)
        spec = m.spec or S.MethodSpec(requires=S.TRUE, ensures=S.TRUE)
        requires = self.formula(spec.requires, scope, CTX_REQUIRES)
        ensures = self.formula(spec.ensures, scope, CTX_ENSURES)
        behaviours = []
        for b in spec.behaviours:
            behaviours.append(S.Behaviour(
                name=b.name,
                assumes=self.formula(b.assumes, scope, CTX_ASSUMES),
                ensures=self.formula(b.ensures, scope, CTX_ENSURES)))
        body_scope = _Scope(scope)
        body = self.stmt(m.body, body_scope)
        if m.return_type != S.VOID and not self.always_returns(m.body):
            self.error(f"method {m.name!r} may finish without a return", m)
        out = S.MethodDecl(name=m.name, params=list(m.params),
                           return_type=m.return_type,
                           spec=S.MethodSpec(requires=requires, ensures=ensures,
                                             behaviours=behaviours),
                           body=body, pos=m.pos)
        self.method = None
        return out

    def always_returns(self, st: S.Stmt) -> bool:
        if isinstance(st, S.Return):
            return True
        if isinstance(st, S.Block):
            return any(self.always_returns(s) for s in st.stmts)
        if isinstance(st, S.If):
            return (st.orelse is not None and self.always_returns(st.then)
                    and self.always_returns(st.orelse))
        if isinstance(st, S.DoWhile):
            return self.always_returns(st.body)
        return False

    # -- statements ------------------------------------------------------------

    def stmt(self, st: S.Stmt, scope: _Scope) -> S.Stmt:
        if isinstance(st, S.Block):
            inner = _Scope(scope)
            out = []
            for k, s in enumerate(st.stmts):
                if out and isinstance(out[-1], S.Return):
                    self.error("unreachable statement after return", s)
                out.append(self.stmt(s, inner))
            return S.Block(stmts=out, pos=st.pos)
        if isinstance(st, S.VarDecl):
            if scope.lookup(st.name) is not None:
                self.error(f"redeclaration of {st.name!r}", st)
            init = None
            if st.init is not None:
                ctx = CTX_GHOST if st.ghost else CTX_PROGRAM
                init = self.rhs(st.init, scope, ctx, st.ty, st)
            elif st.ty.kind == "array":
                self.error(f"array variable {st.name!r} must be initialized", st)
            scope.declare(st.name, st.ty, st.ghost)
            return S.VarDecl(name=st.name, ty=st.ty, init=init, ghost=st.ghost, pos=st.pos)
        if isinstance(st, S.Assign):
            entry = scope.lookup(st.name)
            if entry is None:
                self.error(f"unknown identifier {st.name!r}", st)
                return st
            ty, ghost = entry
            if ghost and not st.ghost:
                self.error(f"ghost variable {st.name!r} assigned outside ghost code", st)
            if not ghost and st.ghost:
                self.error(f"'set' may only assign ghost variables, not {st.name!r}", st)
            if ty.kind == "array":
                self.error(f"whole-array assignment to {st.name!r} is not allowed", st)
            ctx = CTX_GHOST if st.ghost else CTX_PROGRAM
            expr = self.rhs(st.expr, scope, ctx, ty, st)
            return S.Assign(name=st.name, expr=expr, ghost=st.ghost, pos=st.pos)
        if isinstance(st, S.ArrayAssign):
            entry = scope.lookup(st.name)
            if entry is None:
                self.error(f"unknown identifier {st.name!r}", st)
                return st
            ty, ghost = entry
            if ghost:
                self.error(f"ghost array {st.name!r} assigned outside ghost code", st)
            if ty.kind != "array":
                self.error(f"{st.name!r} is not an array", st)
                return st
            idx = self.expr(st.index, scope, CTX_PROGRAM)
            idx = self.coerce_to(idx, S.INT, st)
            val = self.expr(st.expr, scope, CTX_PROGRAM)
            val = self.coerce_to(val, S.elem_type(ty), st)
            return S.ArrayAssign(name=st.name, index=idx, expr=val, pos=st.pos)
        if isinstance(st, S.If):
            cond = self.expr(st.cond, scope, CTX_PROGRAM)
            self.require_type(cond, S.BOOL, st)
            then = self.stmt(st.then, _Scope(scope))
            orelse = self.stmt(st.orelse, _Scope(scope)) if st.orelse is not None else None
            return S.If(cond=cond, then=then, orelse=orelse, pos=st.pos)
        if isinstance(st, S.While):
            cond = self.expr(st.cond, scope, CTX_PROGRAM)
            self.require_type(cond, S.BOOL, st)
            annot = self.loop_annot(st.annot, scope, st)
            body = self.stmt(st.body, _Scope(scope))
            return S.While(annot=annot, cond=cond, body=body, pos=st.pos)
        if isinstance(st, S.DoWhile):
            body_scope = _Scope(scope)
            body = self.stmt(st.body, body_scope)
            # the guard reads state mutated by the body, but names resolve in
            # the enclosing scope: body locals do not leak
            cond = self.expr(st.cond, scope, CTX_PROGRAM)
            self.require_type(cond, S.BOOL, st)
            annot = self.loop_annot(st.annot, scope, st)
            return S.DoWhile(annot=annot, body=body, cond=cond, pos=st.pos)
        if isinstance(st, S.Return):
            rt = self.method.return_type
            if rt == S.VOID:
                if st.expr is not None:
                    self.error("void method returns a value", st)
                return S.Return(expr=None, pos=st.pos)
            if st.expr is None:
                self.error("non-void method must return a value", st)
                return st
            expr = self.rhs(st.expr, scope, CTX_PROGRAM, rt, st)
            return S.Return(expr=expr, pos=st.pos)
        if isinstance(st, S.AssertStmt):
            f = self.formula(st.formula, scope, CTX_ASSERT)
            return S.AssertStmt(formula=f, pos=st.pos)
        raise TypeError(f"unexpected statement {type(st).__name__}")

    def loop_annot(self, a: S.LoopAnnot, scope: _Scope, st) -> S.LoopAnnot:
        inv = self.formula(a.invariant, scope, CTX_INVARIANT)
        variant = None
        if a.variant is not None:
            variant = self.expr(a.variant, scope, CTX_VARIANT)
            if variant.ty is not None and variant.ty != S.INT:
                self.error("loop_variant must be an integer term", st)
        return S.LoopAnnot(invariant=inv, variant=variant)

    def rhs(self, e: S.Expr, scope: _Scope, ctx: str, target: S.SemType, at) -> S.Expr:
        """Right-hand side of an assignment/decl/return: the one position
        where a method call is allowed."""
        if isinstance(e, S.Call):
            out = self.call(e, scope, ctx)
        else:
            out = self.expr(e, scope, ctx)
        return self.coerce_to(out, target, at)

    def call(self, e: S.Call, scope: _Scope, ctx: str) -> S.Expr:
        if ctx != CTX_PROGRAM:
            self.error("method calls are not allowed in annotations", e)
        callee = self.methods.get(e.name)
        if callee is None:
            self.error(f"unknown method {e.name!r}", e)
            return S.Call(name=e.name, args=list(e.args), pos=e.pos, ty=S.INT)
        if callee.return_type == S.VOID:
            self.error(f"call to void method {e.name!r} in expression position", e)
        if len(e.args) != len(callee.params):
            self.error(f"{e.name!r} expects {len(callee.params)} arguments, "
                       f"got {len(e.args)}", e)
            return S.Call(name=e.name, args=list(e.args), pos=e.pos,
                          ty=callee.return_type)
        args = []
        for a, (_, pty) in zip(e.args, callee.params):
            ta = self.expr(a, scope, ctx)
            args.append(self.coerce_to(ta, pty, e))
        return S.Call(name=e.name, args=args, pos=e.pos, ty=callee.return_type)

    # -- expressions ------------------------------------------------------------

    def formula(self, e: S.Expr, scope: _Scope, ctx: str) -> S.Expr:
        out = self.expr(e, scope, ctx)
        self.require_type(out, S.BOOL, e)
        return out

    def require_type(self, e: S.Expr, ty: S.SemType, at):
        if e.ty is not None and e.ty != ty:
            self.error(f"expected {ty}, found {e.ty}", at)

    def coerce_to(self, e: S.Expr, target: S.SemType, at) -> S.Expr:
        if e.ty is None or e.ty == target:
            return e
        if e.ty == S.INT and target == S.REAL:
            return S.Coerce(operand=e, pos=e.pos, ty=S.REAL)
        self.error(f"cannot use {e.ty} where {target} is expected", at)
        return e

    def numeric_join(self, l: S.Expr, r: S.Expr, at):
        """Widen an int/real pair to a common numeric type."""
        lt = l.ty or S.INT
        rt = r.ty or S.INT
        if not (lt.is_numeric and rt.is_numeric):
            self.error(f"numeric operands expected, found {lt} and {rt}", at)
            return l, r, S.INT
        if lt == rt:
            return l, r, lt
        return self.coerce_to(l, S.REAL, at), self.coerce_to(r, S.REAL, at), S.REAL

    def expr(self, e: S.Expr, scope: _Scope, ctx: str) -> S.Expr:
        if isinstance(e, S.IntLit):
            return replace(e, ty=S.INT)
        if isinstance(e, S.RealLit):
            return replace(e, ty=S.REAL)
        if isinstance(e, S.BoolLit):
            return replace(e, ty=S.BOOL)
        if isinstance(e, S.Var):
            entry = scope.lookup(e.name)
            if entry is None:
                self.error(f"unknown identifier {e.name!r}", e)
                return replace(e, ty=S.INT)
            ty, ghost = entry
            if ghost and ctx == CTX_PROGRAM:
                self.error(f"ghost variable {e.name!r} read in program code", e)
            return replace(e, ty=ty)
        if isinstance(e, S.Unary):
            operand = self.expr(e.operand, scope, ctx)
            if e.op == "-":
                if operand.ty is not None and not operand.ty.is_numeric:
                    self.error(f"unary '-' needs a numeric operand, found {operand.ty}", e)
                return S.Unary(op="-", operand=operand, pos=e.pos, ty=operand.ty or S.INT)
            self.require_type(operand, S.BOOL, e)
            return S.Unary(op="!", operand=operand, pos=e.pos, ty=S.BOOL)
        if isinstance(e, S.Binary):
            return self.binary(e, scope, ctx)
        if isinstance(e, S.Index):
            arr = self.expr(e.array, scope, ctx)
            idx = self.expr(e.index, scope, ctx)
            idx = self.coerce_to(idx, S.INT, e)
            if arr.ty is not None and arr.ty.kind != "array":
                self.error(f"indexing a non-array ({arr.ty})", e)
                return S.Index(array=arr, index=idx, pos=e.pos, ty=S.INT)
            ety = S.elem_type(arr.ty) if arr.ty is not None else S.INT
            return S.Index(array=arr, index=idx, pos=e.pos, ty=ety)
        if isinstance(e, S.Call):
            self.error(f"call to {e.name!r} is only allowed as the whole "
                       f"right-hand side of an assignment or return", e)
            return replace(e, ty=S.INT)
        if isinstance(e, S.NewArray):
            if ctx != CTX_PROGRAM:
                self.error("'new' is not allowed in annotations", e)
            size = self.expr(e.size, scope, ctx)
            size = self.coerce_to(size, S.INT, e)
            return S.NewArray(elem=e.elem, size=size, pos=e.pos, ty=S.array_of(e.elem))
        if isinstance(e, S.OldExpr):
            if ctx not in TWO_STATE:
                self.error("\\old is only meaningful in two-state annotations", e)
            operand = self.expr(e.operand, scope, ctx)
            return S.OldExpr(operand=operand, pos=e.pos, ty=operand.ty)
        if isinstance(e, S.ResultExpr):
            if ctx != CTX_ENSURES:
                self.error("\\result is only allowed in ensures clauses", e)
                return replace(e, ty=S.INT)
            if self.method is None or self.method.return_type == S.VOID:
                self.error("\\result in a void method", e)
                return replace(e, ty=S.INT)
            return replace(e, ty=self.method.return_type)
        if isinstance(e, S.LengthExpr):
            if ctx == CTX_PROGRAM:
                self.error("\\length is only allowed in annotations", e)
            arr = self.expr(e.array, scope, ctx)
            if arr.ty is not None and arr.ty.kind != "array":
                self.error(f"\\length of a non-array ({arr.ty})", e)
            return S.LengthExpr(array=arr, pos=e.pos, ty=S.INT)
        if isinstance(e, S.Forall):
            inner = _Scope(scope)
            for name, ty in e.binders:
                if inner.lookup(name) is not None:
                    self.error(f"quantifier binder {name!r} shadows a variable", e)
                inner.declare(name, ty, True)   # binders readable in annotations only
            body = self.formula(e.body, inner, ctx)
            return S.Forall(binders=list(e.binders), body=body, pos=e.pos, ty=S.BOOL)
        if isinstance(e, S.PermutPred):
            arr = self.expr(e.array, scope, ctx)
            if arr.ty is not None and arr.ty.kind != "array":
                self.error(f"Permut applied to a non-array ({arr.ty})", e)
            lo = self.coerce_to(self.expr(e.lo, scope, ctx), S.INT, e)
            hi = self.coerce_to(self.expr(e.hi, scope, ctx), S.INT, e)
            for lab in (e.label1, e.label2):
                if lab == "LoopEntry" and ctx != CTX_INVARIANT:
                    self.error("label LoopEntry is only valid inside a loop invariant", e)
                if lab == "Here" and ctx == CTX_ASSUMES:
                    self.error("behaviour assumes clauses are pre-state formulas; "
                               "label Here is not allowed", e)
            return S.PermutAtom(a1=_at_label(e.label1, arr),
                                a2=_at_label(e.label2, arr),
                                lo=lo, hi=hi, pos=e.pos, ty=S.BOOL)
        if isinstance(e, S.PredCall):
            if e.name != "is_sqrt":
                self.error(f"unknown predicate {e.name!r}", e)
                return replace(e, ty=S.BOOL)
            if len(e.args) != 2:
                self.error("is_sqrt expects 2 arguments", e)
                return replace(e, ty=S.BOOL)
            r = self.coerce_to(self.expr(e.args[0], scope, ctx), S.REAL, e)
            v = self.coerce_to(self.expr(e.args[1], scope, ctx), S.REAL, e)
            return is_sqrt_definition(r, v, e.pos)
        raise TypeError(f"unexpected expression {type(e).__name__}")

    def binary(self, e: S.Binary, scope: _Scope, ctx: str) -> S.Expr:
        l = self.expr(e.left, scope, ctx)
        r = self.expr(e.right, scope, ctx)
        op = e.op
        if op in ("&&", "||", "==>"):
            if op == "==>" and ctx == CTX_PROGRAM:
                self.error("'==>' is only allowed in annotations", e)
            self.require_type(l, S.BOOL, e)
            self.require_type(r, S.BOOL, e)
            return S.Binary(op=op, left=l, right=r, pos=e.pos, ty=S.BOOL)
        if op in ("==", "!="):
            lt, rt = l.ty or S.INT, r.ty or S.INT
            if lt == S.BOOL and rt == S.BOOL:
                return S.Binary(op=op, left=l, right=r, pos=e.pos, ty=S.BOOL)
            if lt.kind == "array" or rt.kind == "array":
                self.error("arrays cannot be compared with ==; use Permut", e)
                return S.Binary(op=op, left=l, right=r, pos=e.pos, ty=S.BOOL)
            l, r, _ = self.numeric_join(l, r, e)
            return S.Binary(op=op, left=l, right=r, pos=e.pos, ty=S.BOOL)
        if op in ("<", "<=", ">", ">="):
            l, r, _ = self.numeric_join(l, r, e)
            return S.Binary(op=op, left=l, right=r, pos=e.pos, ty=S.BOOL)
        if op == "/":
            # division is real-valued; both operands widen
            l = self.coerce_to(l, S.REAL, e) if (l.ty or S.INT) == S.INT else l
            r = self.coerce_to(r, S.REAL, e) if (r.ty or S.INT) == S.INT else r
            if (l.ty or S.REAL) != S.REAL or (r.ty or S.REAL) != S.REAL:
                self.error("'/' needs numeric operands", e)
            return S.Binary(op="/", left=l, right=r, pos=e.pos, ty=S.REAL)
        if op in ("+", "-", "*"):
            l, r, ty = self.numeric_join(l, r, e)
            return S.Binary(op=op, left=l, right=r, pos=e.pos, ty=ty)
        raise TypeError(f"unexpected operator {op!r}")


def is_sqrt_definition(r: S.Expr, v: S.Expr, pos) -> S.Expr:
    """r >= 0 && r*r >= v && r*r - v < 1.2E-7 (typed)."""
    from .lexer import decimal_value
    eps = S.RealLit(text=SQRT_EPS_TEXT, value=decimal_value(SQRT_EPS_TEXT),
                    pos=pos, ty=S.REAL)
    zero = S.Coerce(operand=S.IntLit(value=0, pos=pos, ty=S.INT), pos=pos, ty=S.REAL)
    rr = S.Binary(op="*", left=r, right=r, pos=pos, ty=S.REAL)
    c1 = S.Binary(op=">=", left=r, right=zero, pos=pos, ty=S.BOOL)
    c2 = S.Binary(op=">=", left=rr, right=v, pos=pos, ty=S.BOOL)
    diff = S.Binary(op="-", left=rr, right=v, pos=pos, ty=S.REAL)
    c3 = S.Binary(op="<", left=diff, right=eps, pos=pos, ty=S.BOOL)
    out = S.Binary(op="&&",
                   left=S.Binary(op="&&", left=c1, right=c2, pos=pos, ty=S.BOOL),
                   right=c3, pos=pos, ty=S.BOOL)
    return out


def _at_label(label: str, arr: S.Expr) -> S.Expr:
    """The typed array `arr` read in the state a Permut label names: Old and
    Pre as \\old(arr), LoopEntry as an untagged \\at(arr, LoopEntry) that
    vcgen tags with its loop, Here as arr itself."""
    if label in ("Old", "Pre"):
        return S.OldExpr(operand=arr, pos=arr.pos, ty=arr.ty)
    if label == "LoopEntry":
        return S.AtLabel(operand=arr, label=label, pos=arr.pos, ty=arr.ty)
    return arr


def _check(unit: S.SourceUnit):
    """(rewritten unit, issues). Nesting too deep for the recursive checker
    is an issue at the method being checked, not a RecursionError."""
    c = _Checker(unit)
    try:
        return c.run(), c.issues
    except RecursionError:
        where = getattr(c.method, "pos", (0, 0))
        return None, c.issues + [TypeIssue("nesting too deep", where)]


def check_unit(unit: S.SourceUnit) -> list[TypeIssue]:
    """All type errors in the unit; empty list means it typechecks."""
    return _check(unit)[1]


def typecheck(unit: S.SourceUnit) -> TypedUnit:
    """Typecheck a parsed unit; raises TypeCheckFailure listing every issue."""
    rewritten, issues = _check(unit)
    if issues:
        raise TypeCheckFailure(issues)
    return TypedUnit(unit=rewritten, source=unit,
                     method_index={m.name: m for m in rewritten.methods})
