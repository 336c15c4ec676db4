"""Equivalence-preserving formula simplification.

Rewrites, applied bottom-up with contextual facts threaded through `&&` and
`==>`: exact constant folding; boolean absorption, flattening and
double-negation elimination; arithmetic normalization to an ordered
sum-of-terms; select/store reduction when the index difference normalizes to
a constant; `0/y -> 0` under a hypothesis `y != 0`; expansion of bounded
integer quantifiers with literal bounds spanning at most 64 points.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from . import syntax as S
from .printer import expr_to_str

EXPAND_LIMIT = 64


# ---------------------------------------------------------------------------
# linear forms: const + sum(coeff * atom)

class Lin:
    __slots__ = ("const", "terms", "ty")

    def __init__(self, const=Fraction(0), terms=None, ty=S.INT):
        self.const = const
        self.terms = terms or {}        # key -> (coeff, atom expr)
        self.ty = ty

    @property
    def is_const(self):
        return not self.terms

    def scale(self, k: Fraction):
        if k == 0:
            return Lin(Fraction(0), {}, self.ty)
        return Lin(self.const * k,
                   {key: (c * k, a) for key, (c, a) in self.terms.items()},
                   self.ty)

    def add(self, other, sign=1):
        terms = dict(self.terms)
        for key, (c, a) in other.terms.items():
            if key in terms:
                nc = terms[key][0] + sign * c
                if nc == 0:
                    del terms[key]
                else:
                    terms[key] = (nc, a)
            else:
                terms[key] = (sign * c, a)
        ty = S.REAL if S.REAL in (self.ty, other.ty) else S.INT
        return Lin(self.const + sign * other.const, terms, ty)

    def key(self):
        return (self.const,
                tuple(sorted((k, c) for k, (c, a) in self.terms.items())))


def _atom(e: S.Expr) -> Lin:
    return Lin(Fraction(0), {expr_to_str(e): (Fraction(1), e)},
               S.REAL if e.ty == S.REAL else S.INT)


def linearize(e: S.Expr, ctx) -> Lin:
    """Normalize an int/real expression; nonlinear subterms stay atomic."""
    if isinstance(e, S.IntLit):
        return Lin(Fraction(e.value), {}, S.INT)
    if isinstance(e, S.RealLit):
        return Lin(e.value, {}, S.REAL)
    if isinstance(e, S.Coerce):
        inner = linearize(e.operand, ctx)
        return Lin(inner.const, inner.terms, S.REAL)
    if isinstance(e, S.Unary) and e.op == "-":
        return linearize(e.operand, ctx).scale(Fraction(-1))
    if isinstance(e, S.Binary) and e.op in ("+", "-", "*", "/"):
        l = linearize(e.left, ctx)
        r = linearize(e.right, ctx)
        if e.op == "+":
            return l.add(r)
        if e.op == "-":
            return l.add(r, sign=-1)
        if e.op == "*":
            if l.is_const:
                return r.scale(l.const) if l.const != 0 else Lin(Fraction(0), {}, r.ty)
            if r.is_const:
                return l.scale(r.const)
            prod = _render_product(to_expr(l, e.ty), to_expr(r, e.ty), e)
            return _atom(prod)
        # division
        if l.is_const and l.const == 0 and _known_nonzero(r, ctx):
            return Lin(Fraction(0), {}, S.REAL)
        if l.is_const and r.is_const and r.const != 0:
            return Lin(l.const / r.const, {}, S.REAL)
        div = replace(e, left=to_expr(l, S.REAL), right=to_expr(r, S.REAL))
        return _atom(div)
    # select/store reduction happens before atomization
    if isinstance(e, S.Index):
        red = _reduce_select(e, ctx)
        if red is not None:
            return linearize(red, ctx)
        return _atom(replace(e, array=_simp_expr(e.array, ctx),
                             index=to_expr(linearize(e.index, ctx), S.INT)))
    if isinstance(e, S.LengthExpr):
        arr = _strip_stores(_simp_expr(e.array, ctx))
        return _atom(replace(e, array=arr))
    if isinstance(e, (S.OldExpr, S.AtLabel)) and e.operand.ty in (S.INT, S.REAL):
        inner = to_expr(linearize(e.operand, ctx), e.operand.ty)
        return _atom(replace(e, operand=inner))
    return _atom(e)


def _render_product(a: S.Expr, b: S.Expr, orig) -> S.Expr:
    if expr_to_str(a) > expr_to_str(b):
        a, b = b, a
    return replace(orig, left=a, right=b)


def _known_nonzero(r: Lin, ctx) -> bool:
    if r.is_const:
        return r.const != 0
    target = r.key()
    return target in ctx.nonzero


def _strip_stores(a: S.Expr) -> S.Expr:
    while isinstance(a, S.Store):
        a = a.array
    return a


def _reduce_select(e: S.Index, ctx):
    arr = _simp_expr(e.array, ctx)
    if not isinstance(arr, S.Store):
        return None
    i = linearize(arr.index, ctx)
    j = linearize(e.index, ctx)
    diff = i.add(j, sign=-1)
    if diff.is_const:
        if diff.const == 0:
            return _simp_expr(arr.value, ctx)
        return _simp_expr(replace(e, array=arr.array), ctx)
    return None


def _frac_lit(q: Fraction, ty: S.SemType) -> S.Expr:
    if ty == S.INT:
        if q < 0:
            return S.Unary(op="-", operand=S.IntLit(value=-int(q), ty=S.INT), ty=S.INT)
        return S.IntLit(value=int(q), ty=S.INT)
    if q < 0:
        return S.Unary(op="-", operand=_frac_lit(-q, ty), ty=ty)
    den = q.denominator
    d2, d5 = den, 0
    while d2 % 2 == 0:
        d2 //= 2
    while d2 % 5 == 0:
        d2 //= 5
        d5 += 1
    if d2 == 1:
        # exact decimal
        text = str(float(q)) if float(q) == q and "e" not in str(float(q)) else None
        if text is None or Fraction(text) != q:
            num, k = q.numerator, 0
            while num % den:
                num *= 10
                k += 1
            digits = str(num // den).rjust(k + 1, "0")
            text = digits[:-k] + "." + digits[-k:] if k else digits + ".0"
        return S.RealLit(text=text, value=q, ty=S.REAL)
    return S.Binary(op="/", left=S.RealLit(text=f"{q.numerator}.0", value=Fraction(q.numerator), ty=S.REAL),
                    right=S.RealLit(text=f"{q.denominator}.0", value=Fraction(q.denominator), ty=S.REAL),
                    ty=S.REAL)


def to_expr(l: Lin, ty: S.SemType) -> S.Expr:
    """Deterministic sum-of-terms rendering, terms ordered by atom key."""
    want = S.REAL if ty == S.REAL or l.ty == S.REAL else S.INT

    def cast(e):
        if want == S.REAL and e.ty == S.INT:
            return S.Coerce(operand=e, ty=S.REAL)
        return e

    parts = []
    for key in sorted(l.terms):
        c, a = l.terms[key]
        a = cast(a)
        if c == 1:
            parts.append((a, 1))
        elif c == -1:
            parts.append((a, -1))
        else:
            coeff = _frac_lit(abs(c), want if want == S.REAL else S.INT)
            parts.append((S.Binary(op="*", left=coeff, right=a, ty=want),
                          1 if c > 0 else -1))
    out = None
    for e, sign in parts:
        if out is None:
            out = e if sign > 0 else S.Unary(op="-", operand=e, ty=want)
        else:
            out = S.Binary(op="+" if sign > 0 else "-", left=out, right=e, ty=want)
    if out is None:
        return _frac_lit(l.const, want)
    if l.const != 0:
        sign = "+" if l.const > 0 else "-"
        out = S.Binary(op=sign, left=out, right=_frac_lit(abs(l.const), want), ty=want)
    return out


# ---------------------------------------------------------------------------
# the boolean layer

class _Ctx:
    def __init__(self):
        self.nonzero = set()        # Lin keys known != 0

    def child(self):
        c = _Ctx()
        c.nonzero = set(self.nonzero)
        return c


def _learn(ctx, f: S.Expr):
    """Record facts useful to later rewrites (currently: nonzero divisors)."""
    if isinstance(f, S.Binary) and f.op == "&&":
        _learn(ctx, f.left)
        _learn(ctx, f.right)
        return
    if isinstance(f, S.Binary) and f.op in ("!=", ">", "<"):
        l = linearize(f.left, ctx)
        r = linearize(f.right, ctx)
        diff = l.add(r, sign=-1)
        if not diff.is_const:
            ctx.nonzero.add(diff.scale(Fraction(1, 1)).key())
            # x != 0 with x on either side
            if diff.const == 0:
                ctx.nonzero.add(l.key())
                ctx.nonzero.add(r.key())


_CMP_FOLD = {
    "==": lambda d: d == 0, "!=": lambda d: d != 0,
    "<": lambda d: d < 0, "<=": lambda d: d <= 0,
    ">": lambda d: d > 0, ">=": lambda d: d >= 0,
}


def _simp_expr(e: S.Expr, ctx) -> S.Expr:
    """Simplify a non-boolean expression (or an opaque node's children)."""
    if isinstance(e, (S.IntLit, S.RealLit, S.BoolLit, S.Var, S.FreshVar,
                      S.ResultExpr)):
        return e
    if e.ty in (S.INT, S.REAL):
        return to_expr(linearize(e, ctx), e.ty)
    if isinstance(e, (S.Store, S.OldExpr, S.AtLabel)):
        return S.map_children(e, lambda c: _simp_expr(c, ctx))
    if e.ty == S.BOOL:
        return simplify_in(e, ctx)
    return e


def _flatten(op, f, out):
    if isinstance(f, S.Binary) and f.op == op:
        _flatten(op, f.left, out)
        _flatten(op, f.right, out)
    else:
        out.append(f)


def simplify_in(f: S.Expr, ctx) -> S.Expr:
    TRUE, FALSE = S.BoolLit(value=True, ty=S.BOOL), S.BoolLit(value=False, ty=S.BOOL)
    if isinstance(f, S.BoolLit):
        return replace(f, ty=S.BOOL)
    if isinstance(f, S.Unary) and f.op == "!":
        inner = simplify_in(f.operand, ctx)
        if isinstance(inner, S.BoolLit):
            return S.BoolLit(value=not inner.value, ty=S.BOOL)
        if isinstance(inner, S.Unary) and inner.op == "!":
            return inner.operand
        return replace(f, operand=inner)
    if isinstance(f, S.Binary) and f.op == "&&":
        parts = []
        _flatten("&&", f, parts)
        out = []
        sub = ctx.child()
        for p in parts:
            sp = simplify_in(p, sub)
            if isinstance(sp, S.BoolLit):
                if not sp.value:
                    return FALSE
                continue
            if all(sp != q for q in out):
                out.append(sp)
            _learn(sub, sp)
        return S.conj([replace(p, ty=S.BOOL) if p.ty is None else p for p in out])
    if isinstance(f, S.Binary) and f.op == "||":
        parts = []
        _flatten("||", f, parts)
        out = []
        for p in parts:
            sp = simplify_in(p, ctx)
            if isinstance(sp, S.BoolLit):
                if sp.value:
                    return TRUE
                continue
            if all(sp != q for q in out):
                out.append(sp)
        if not out:
            return FALSE
        res = out[0]
        for p in out[1:]:
            res = S.Binary(op="||", left=res, right=p, ty=S.BOOL)
        return res
    if isinstance(f, S.Binary) and f.op == "==>":
        ante = simplify_in(f.left, ctx)
        if isinstance(ante, S.BoolLit):
            return simplify_in(f.right, ctx) if ante.value else TRUE
        sub = ctx.child()
        _learn(sub, ante)
        cons = simplify_in(f.right, sub)
        if isinstance(cons, S.BoolLit) and cons.value:
            return TRUE
        if ante == cons:
            return TRUE
        return S.Binary(op="==>", left=ante, right=cons, ty=S.BOOL)
    if isinstance(f, S.Binary) and f.op in _CMP_FOLD:
        lt, rt = f.left.ty, f.right.ty
        if lt in (S.INT, S.REAL) and rt in (S.INT, S.REAL):
            l = linearize(f.left, ctx)
            r = linearize(f.right, ctx)
            diff = l.add(r, sign=-1)
            if diff.is_const:
                return S.BoolLit(value=_CMP_FOLD[f.op](diff.const), ty=S.BOOL)
            return replace(f, left=to_expr(l, lt), right=to_expr(r, rt))
        # boolean or array equality: simplify children, fold identical sides
        l = _simp_expr(f.left, ctx)
        r = _simp_expr(f.right, ctx)
        if l == r and f.op in ("==", "<=", ">="):
            return TRUE
        if l == r and f.op in ("!=", "<", ">"):
            return FALSE
        return replace(f, left=l, right=r)
    if isinstance(f, S.Forall):
        return _expand_forall(f, ctx)
    if isinstance(f, S.PermutAtom):
        a1 = _simp_expr(f.a1, ctx)
        a2 = _simp_expr(f.a2, ctx)
        if a1 == a2:
            return TRUE
        return replace(f, a1=a1, a2=a2, lo=_simp_expr(f.lo, ctx),
                       hi=_simp_expr(f.hi, ctx))
    if isinstance(f, S.PermutPred):
        return S.map_children(f, lambda c: _simp_expr(c, ctx))
    if isinstance(f, S.OldExpr):
        return S.map_children(f, lambda c: simplify_in(c, ctx))
    return f


def _expand_forall(f: S.Forall, ctx) -> S.Expr:
    body = f.body
    # peel binders whose bounds are literal and narrow
    for i, (name, ty) in enumerate(f.binders):
        if ty != S.INT:
            continue
        bounds = _literal_bounds(body, name)
        if bounds is None:
            continue
        lo, hi = bounds
        if hi - lo + 1 > EXPAND_LIMIT or hi < lo - 1:
            continue
        rest = f.binders[:i] + f.binders[i + 1:]
        insts = [S.substitute(body, {name: S.IntLit(value=k, ty=S.INT)})
                 for k in range(lo, hi + 1)]
        inner = S.conj([replace(x, ty=S.BOOL) for x in insts]) if insts \
            else S.BoolLit(value=True, ty=S.BOOL)
        if rest:
            inner = S.Forall(binders=rest, body=inner, ty=S.BOOL)
        return simplify_in(inner, ctx)
    sbody = simplify_in(body, ctx.child())
    if isinstance(sbody, S.BoolLit):
        # the integer domain is nonempty, so the quantifier folds away
        return sbody
    return replace(f, body=sbody)


def _int_of(e):
    if isinstance(e, S.IntLit):
        return e.value
    if isinstance(e, S.Unary) and e.op == "-" and isinstance(e.operand, S.IntLit):
        return -e.operand.value
    return None


def _literal_bounds(body, name):
    if not (isinstance(body, S.Binary) and body.op == "==>"):
        return None
    guards = []
    _flatten("&&", body.left, guards)
    lo = hi = None
    for g in guards:
        if not (isinstance(g, S.Binary) and g.op in ("<", "<=", ">", ">=")):
            continue
        l, r = g.left, g.right
        if isinstance(l, S.Var) and l.name == name and _int_of(r) is not None:
            v = _int_of(r)
            if g.op == "<":
                hi = v - 1 if hi is None else min(hi, v - 1)
            elif g.op == "<=":
                hi = v if hi is None else min(hi, v)
            elif g.op == ">":
                lo = v + 1 if lo is None else max(lo, v + 1)
            else:
                lo = v if lo is None else max(lo, v)
        elif isinstance(r, S.Var) and r.name == name and _int_of(l) is not None:
            v = _int_of(l)
            if g.op == "<":
                lo = v + 1 if lo is None else max(lo, v + 1)
            elif g.op == "<=":
                lo = v if lo is None else max(lo, v)
            elif g.op == ">":
                hi = v - 1 if hi is None else min(hi, v - 1)
            else:
                hi = v if hi is None else min(hi, v)
    if lo is None or hi is None:
        return None
    return lo, hi


def simplify(f: S.Expr, hypotheses=()) -> S.Expr:
    """Simplify a typed formula; hypotheses contribute context facts only."""
    ctx = _Ctx()
    for h in hypotheses:
        _learn(ctx, h)
    return simplify_in(f, ctx)
