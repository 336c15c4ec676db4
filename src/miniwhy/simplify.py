"""Equivalence-preserving formula simplification.

Rewrites, applied bottom-up with contextual facts threaded through `&&` and
`==>`: exact constant folding; boolean absorption, flattening and
double-negation elimination; arithmetic normalization to an ordered
sum-of-terms, division by a nonzero constant included; select/store
reduction when the index difference normalizes to a constant; `0/y -> 0`
under a hypothesis `y != 0`; expansion of bounded integer quantifiers with
literal bounds spanning at most 64 points.

`linearize` is the package's one walk from an int/real term to a `Lin`.
`simplify` puts each numeric comparison it emits in a table with its sides'
forms, and `_learn` and the prover read them there: one reading of each
comparison, so both modules abstract the same atoms. The same table memoises
`simplify_in` per node object and nonzero facts, so a caller that passes one
table to many formulas (the prover, for the obligations of one set)
simplifies each shared subterm once per context.

Obligations are state-free (vcgen closes them), so no `\\old`, label,
`Permut` predicate or `\\result` reaches the simplifier from one. Called
directly on such a node, it keeps the node as an opaque atom or formula.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from . import syntax as S
from .linear import Lin
from .printer import expr_to_str
from .values import decimal_text

EXPAND_LIMIT = 64


# ---------------------------------------------------------------------------
# linear forms: a (Lin, sort) pair, the Lin keyed by printed atoms and the
# sort REAL once any part of the term is real

class _Atom(str):
    """The printed key of an atomic subterm, carrying the subterm. Of two
    atoms that print alike, a sum renders its right operand's."""

    def __new__(cls, e: S.Expr):
        key = super().__new__(cls, expr_to_str(e))
        key.expr = e
        return key


def _atom(e: S.Expr):
    return (Lin(coeffs={_Atom(e): 1}),
            S.REAL if e.ty == S.REAL else S.INT)


def _join(a: S.SemType, b: S.SemType) -> S.SemType:
    return S.REAL if S.REAL in (a, b) else S.INT


def linearize(e: S.Expr, ctx):
    """(Lin, sort) of an int/real expression; nonlinear subterms stay atomic.
    Coefficients and constant are ints, and a `Fraction` only where the term
    has a real literal or divides by a constant."""
    if isinstance(e, S.IntLit):
        return Lin(e.value), S.INT
    if isinstance(e, S.RealLit):
        return Lin(e.value), S.REAL
    if isinstance(e, S.Coerce):
        return linearize(e.operand, ctx)[0], S.REAL
    if isinstance(e, S.Unary) and e.op == "-":
        l, ty = linearize(e.operand, ctx)
        return l.scale(-1), ty
    if isinstance(e, S.Binary) and e.op in ("+", "-", "*", "/"):
        lf, rf = linearize(e.left, ctx), linearize(e.right, ctx)
        (l, lt), (r, rt) = lf, rf
        if e.op in ("+", "-"):
            return l.add(r, 1 if e.op == "+" else -1), _join(lt, rt)
        if e.op == "*":
            if l.is_const:
                return r.scale(l.const), rt
            if r.is_const:
                return l.scale(r.const), lt
            return _atom(_render_product(to_expr(lf, e.ty), to_expr(rf, e.ty), e))
        # division
        if l.is_const and l.const == 0 and _known_nonzero(r, ctx):
            return Lin(), S.REAL
        if r.is_const and r.const != 0:
            return l.scale(Fraction(1, r.const)), S.REAL
        return _atom(replace(e, left=to_expr(lf, S.REAL), right=to_expr(rf, S.REAL)))
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
    return _atom(e)


def linear_form(e: S.Expr) -> Lin:
    """The Lin of an int/real term under no contextual facts, keyed by
    `_Atom`s: each key is an atom's printed text and carries the atom."""
    return linearize(e, _Ctx())[0]


def _render_product(a: S.Expr, b: S.Expr, orig) -> S.Expr:
    if expr_to_str(a) > expr_to_str(b):
        a, b = b, a
    return replace(orig, left=a, right=b)


def _known_nonzero(r: Lin, ctx) -> bool:
    if r.is_const:
        return r.const != 0
    return r.key() in ctx.nonzero


def _strip_stores(a: S.Expr) -> S.Expr:
    while isinstance(a, S.Store):
        a = a.array
    return a


def _reduce_select(e: S.Index, ctx):
    arr = _simp_expr(e.array, ctx)
    if not isinstance(arr, S.Store):
        return None
    diff = linearize(arr.index, ctx)[0].add(linearize(e.index, ctx)[0], -1)
    if diff.is_const:
        if diff.const == 0:
            return _simp_expr(arr.value, ctx)
        return _simp_expr(replace(e, array=arr.array), ctx)
    return None


def _frac_lit(q, ty: S.SemType) -> S.Expr:
    """The literal of an int or Fraction q of sort ty; a real literal's
    value is a Fraction."""
    if ty == S.INT:
        if q < 0:
            return S.Unary(op="-", operand=S.IntLit(value=-int(q), ty=S.INT), ty=S.INT)
        return S.IntLit(value=int(q), ty=S.INT)
    if q < 0:
        return S.Unary(op="-", operand=_frac_lit(-q, ty), ty=ty)
    q = Fraction(q)
    text = decimal_text(q)
    if text is not None:
        return S.RealLit(text=text, value=q, ty=S.REAL)
    return S.Binary(op="/", left=S.RealLit(text=f"{q.numerator}.0", value=Fraction(q.numerator), ty=S.REAL),
                    right=S.RealLit(text=f"{q.denominator}.0", value=Fraction(q.denominator), ty=S.REAL),
                    ty=S.REAL)


def to_expr(form, ty: S.SemType) -> S.Expr:
    """Deterministic sum-of-terms rendering of a (Lin, sort) form, terms
    ordered by atom key."""
    lin, lty = form
    want = _join(ty, lty)

    def cast(e):
        if want == S.REAL and e.ty == S.INT:
            return S.Coerce(operand=e, ty=S.REAL)
        return e

    parts = []
    for key in sorted(lin.coeffs):
        c, a = lin.coeffs[key], cast(key.expr)
        if c == 1:
            parts.append((a, 1))
        elif c == -1:
            parts.append((a, -1))
        else:
            coeff = _frac_lit(abs(c), want)
            parts.append((S.Binary(op="*", left=coeff, right=a, ty=want),
                          1 if c > 0 else -1))
    out = None
    for e, sign in parts:
        if out is None:
            out = e if sign > 0 else S.Unary(op="-", operand=e, ty=want)
        else:
            out = S.Binary(op="+" if sign > 0 else "-", left=out, right=e, ty=want)
    if out is None:
        return _frac_lit(lin.const, want)
    if lin.const != 0:
        sign = "+" if lin.const > 0 else "-"
        out = S.Binary(op=sign, left=out, right=_frac_lit(abs(lin.const), want), ty=want)
    return out


# ---------------------------------------------------------------------------
# the boolean layer

class _Ctx:
    def __init__(self, forms=None):
        self.nonzero = frozenset()  # Lin keys known != 0
        self.forms = {} if forms is None else forms    # shared with children

    def child(self):
        c = _Ctx(self.forms)
        c.nonzero = self.nonzero
        return c


def _learn(ctx, f: S.Expr):
    """Record facts useful to later rewrites (currently: nonzero divisors).
    f is simplified, so each numeric comparison in it has its forms in the
    table: `l < r`, `l > r` and `l != r` make `l - r` and `r - l` nonzero."""
    learnt = set()
    for g in S.conjuncts(f):
        entry = ctx.forms.get(id(g))
        if entry is not None and g.op in ("!=", ">", "<"):
            diff = entry[1].add(entry[2], -1)
            learnt.add(diff.key())
            learnt.add(diff.scale(-1).key())
    if learnt:
        ctx.nonzero = ctx.nonzero | learnt


def _simp_expr(e: S.Expr, ctx) -> S.Expr:
    """Simplify a non-boolean expression (or an opaque node's children)."""
    if isinstance(e, (S.IntLit, S.RealLit, S.BoolLit, S.Var, S.FreshVar)):
        return e
    if e.ty in (S.INT, S.REAL):
        return to_expr(linearize(e, ctx), e.ty)
    if isinstance(e, S.Store):
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


def _keep(sp: S.Expr, out: list, seen: set, forms) -> None:
    """Append the simplified operand sp to out unless it repeats a kept one:
    the same object, a numeric comparison with the op and side forms of a
    kept one, or any other formula equal to a kept one. seen holds the kept
    operands' ids and comparison keys."""
    if id(sp) in seen:
        return
    entry = forms.get(id(sp))
    if entry is not None:
        key = (sp.op, entry[1].key(), entry[2].key())
        if key in seen:
            return
        seen.add(key)
    elif any(sp == q for q in out):
        return
    seen.add(id(sp))
    out.append(sp)


def simplify_in(f: S.Expr, ctx) -> S.Expr:
    """f simplified under ctx's facts. The result depends only on f and the
    nonzero keys, and the comparisons it holds have their forms in the
    table, so it is memoised there on (id(f), nonzero keys); the entry
    holds f, so that its id cannot be reused while the table lives."""
    key = (id(f), ctx.nonzero)
    hit = ctx.forms.get(key)
    if hit is None:
        hit = ctx.forms[key] = (f, _simplify_node(f, ctx))
    return hit[1]


def _simplify_node(f: S.Expr, ctx) -> S.Expr:
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
        out, seen = [], set()
        sub = ctx.child()
        for p in S.conjuncts(f):
            sp = simplify_in(p, sub)
            if isinstance(sp, S.BoolLit):
                if not sp.value:
                    return FALSE
                continue
            _keep(sp, out, seen, ctx.forms)
            _learn(sub, sp)
        return S.conj([replace(p, ty=S.BOOL) if p.ty is None else p for p in out])
    if isinstance(f, S.Binary) and f.op == "||":
        parts = []
        _flatten("||", f, parts)
        out, seen = [], set()
        for p in parts:
            sp = simplify_in(p, ctx)
            if isinstance(sp, S.BoolLit):
                if sp.value:
                    return TRUE
                continue
            _keep(sp, out, seen, ctx.forms)
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
    if isinstance(f, S.Binary) and f.op in S.COMPARE:
        lt, rt = f.left.ty, f.right.ty
        if lt in (S.INT, S.REAL) and rt in (S.INT, S.REAL):
            lf, rf = linearize(f.left, ctx), linearize(f.right, ctx)
            diff = lf[0].add(rf[0], -1)
            if diff.is_const:
                return S.BoolLit(value=S.COMPARE[f.op](diff.const, 0), ty=S.BOOL)
            out = replace(f, left=to_expr(lf, lt), right=to_expr(rf, rt))
            ctx.forms[id(out)] = (out, lf[0], rf[0])
            return out
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
        if hi - lo + 1 > EXPAND_LIMIT:      # hi < lo is an empty range
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
    """(lo, hi) of binder `name` from the guards of `guards ==> ...` that
    bound it by an integer literal, or None unless both ends are bounded."""
    if not (isinstance(body, S.Binary) and body.op == "==>"):
        return None
    ends = {"lo": [], "hi": []}
    for g in S.conjuncts(body.left):
        got = S.bound_from(g, name)
        if got is not None and _int_of(got[1]) is not None:
            kind, e, delta = got
            ends[kind].append(_int_of(e) + delta)
    if not ends["lo"] or not ends["hi"]:
        return None
    return max(ends["lo"]), min(ends["hi"])


def simplify(f: S.Expr, forms=None) -> S.Expr:
    """Simplify a typed formula. A given dict `forms` receives, for each
    numeric comparison emitted, id(comparison) -> (comparison, Lin of left,
    Lin of right); holding the comparison keeps its id from being reused.
    It also receives the memo of `simplify_in`, (id(node), frozenset of
    nonzero keys) -> (node, result), so a later call given the same dict
    reuses what an earlier one simplified; the entries live as long as the
    dict."""
    return simplify_in(f, _Ctx(forms))
