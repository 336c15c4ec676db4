"""The term core: the child table, map_children, rewrite and substitute."""

import gc
import typing

from miniwhy import syntax as S
from miniwhy import vcgen

from helpers import parse_formula, typed_formula


def _expr_classes():
    out, todo = [], [S.Expr]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def test_every_expression_field_is_in_the_child_table():
    # a node class missing here would be skipped silently by every rewriter
    not_children = {(S.Forall, "binders")}      # (name, type) pairs, not terms
    for cls in _expr_classes():
        hints = typing.get_type_hints(cls, vars(S))
        held = [name for name in cls.__dataclass_fields__
                if name not in ("pos", "ty") and hints[name] in (S.Expr, list)
                and (cls, name) not in not_children]
        assert set(held) == set(S.CHILDREN.get(cls, ())), cls.__name__


def test_map_children_keeps_unchanged_nodes_and_rebuilds_only_the_changed_one():
    f = typed_formula("x + 1 > 0 && y < 2", {"x": S.INT, "y": S.INT})
    assert S.map_children(f, lambda c: c) is f
    assert S.rewrite(f, lambda e: None) is f
    zero = S.IntLit(value=0, ty=S.INT)
    g = S.substitute(f, {"y": zero})
    assert g is not f and g.pos == f.pos and g.ty == f.ty
    assert g.left is f.left                     # the x side is shared
    assert g.right.right is f.right.right
    assert g.right.left is zero


def test_substitute_respects_binders_and_pinned_classes():
    f = parse_formula("x > 0 && \\old(x) > 0 && (\\forall integer x; x >= x)")
    one = S.IntLit(value=1, ty=S.INT)
    g = S.substitute(f, {"x": one}, pinned=(S.OldExpr,))
    (plain, old), quant = (g.left.left, g.left.right), g.right
    assert plain.left is one
    assert old is f.left.right                  # pinned: left whole
    assert quant is f.right                     # the binder shadows x
    h = S.substitute(f, {"x": one})
    assert h.left.right.left.operand is one


def test_rewrite_does_not_descend_into_a_replacement():
    f = typed_formula("x + x > 0", {"x": S.INT})
    seen = []

    def fn(e):
        seen.append(type(e).__name__)
        if isinstance(e, S.Binary) and e.op == "+":
            return S.Var(name="x", ty=S.INT)
        return None
    g = S.rewrite(f, fn)
    assert seen == ["Binary", "Binary", "IntLit"]
    assert isinstance(g.left, S.Var)


def test_children_follow_the_table():
    n = S.Var(name="n")
    new = S.NewArray(elem=S.REAL, size=n)
    f = S.Binary(op="==", left=S.LengthExpr(array=new), right=n)
    assert list(S.children(new)) == [new.size]
    assert list(S.children(f)) == [f.left, f.right]
    assert list(S.children(f.right)) == []


def _doubling(levels: int):
    """f_{k+1} = f_k && f_k over f_0 = x > 0: 2**levels tree nodes above
    f_0, but levels + 3 distinct node objects."""
    f = typed_formula("x > 0", {"x": S.INT})
    for _ in range(levels):
        f = S.Binary(op="&&", left=f, right=f, ty=S.BOOL)
    return f


def _levels(f):
    while isinstance(f, S.Binary) and f.op == "&&":
        assert f.left is f.right            # the sharing survived
        f = f.left
    return f


def test_rewriters_walk_the_dag_not_the_tree():
    f = _doubling(40)
    one = S.IntLit(value=1, ty=S.INT)
    assert _levels(S.substitute(f, {"x": one})).left is one
    calls = []

    def fn(e):
        calls.append(e)
        return one if isinstance(e, S.Var) else None
    assert _levels(S.rewrite(f, fn)).left is one
    assert len(calls) == 43                 # once per distinct node
    fresh = S.FreshVar(name="x@L0", base="x", loop_id=0, ty=S.INT)
    assert _levels(vcgen.havoc(f, {"x": fresh})).left is fresh


def test_a_subterm_shared_inside_and_outside_a_binder():
    one, two = S.IntLit(value=1, ty=S.INT), S.IntLit(value=2, ty=S.INT)
    shared = typed_formula("x + y > 0", {"x": S.INT, "y": S.INT})
    quant = S.Forall(binders=[("x", S.INT)], body=shared, ty=S.BOOL)
    env = {"x": one, "y": two}
    for f in (S.Binary(op="&&", left=shared, right=quant, ty=S.BOOL),
              S.Binary(op="&&", left=quant, right=shared, ty=S.BOOL)):
        g = S.substitute(f, env, memo={})
        assert S.substitute(f, env) == g
        outside, inside = ((g.left, g.right.body) if f.left is shared
                           else (g.right, g.left.body))
        assert outside.left.left is one and outside.left.right is two
        assert inside.left.left is shared.left.left     # bound x kept
        assert inside.left.right is two


def test_a_shared_memo_holds_its_nodes():
    one = S.IntLit(value=1, ty=S.INT)
    memo = {}
    f = typed_formula("x + 1 > x * 2", {"x": S.INT})
    S.substitute(f, {"x": one}, memo=memo)
    del f
    gc.collect()
    # while the memo lives no node of f is freed, so no new node can take
    # an id it has an entry for
    assert all(id(node) == key for key, (node, _) in memo.items())
    for k in range(50):
        g = typed_formula(f"x - {k} < x", {"x": S.INT})
        assert S.substitute(g, {"x": one}, memo=memo) == \
            S.substitute(g, {"x": one})
