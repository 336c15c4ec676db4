"""The term core: the child table, map_children, rewrite and substitute."""

import ast
import copy
import gc
import pickle
import typing
import weakref
from pathlib import Path

import pytest

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
        g = S.substitute(f, env, memo=S.Memo())
        assert S.substitute(f, env) == g
        outside, inside = ((g.left, g.right.body) if f.left is shared
                           else (g.right, g.left.body))
        assert outside.left.left is one and outside.left.right is two
        assert inside.left.left is shared.left.left     # bound x kept
        assert inside.left.right is two


def test_a_shared_memo_holds_its_nodes():
    one = S.IntLit(value=1, ty=S.INT)
    memo = S.Memo()
    f = typed_formula("x + 1 > x * 2", {"x": S.INT})
    held = [weakref.ref(n) for n in S.walk(f)]
    S.substitute(f, {"x": one}, memo=memo)
    del f
    gc.collect()
    # while the memo lives no node of f is freed, so no new node can take
    # an id it has an entry for
    assert all(ref() is not None for ref in held)
    for k in range(50):
        g = typed_formula(f"x - {k} < x", {"x": S.INT})
        assert S.substitute(g, {"x": one}, memo=memo) == \
            S.substitute(g, {"x": one})
    del memo
    gc.collect()
    assert all(ref() is None for ref in held)


# ---------------------------------------------------------------------------
# the identity table

class _Obj:
    """An object that a weak reference can follow."""


def test_a_hit_needs_the_very_node():
    x, twin = S.Var(name="x", ty=S.INT), S.Var(name="x", ty=S.INT)
    assert x == twin
    table = S.Memo()
    assert table.get(x) is None
    assert table.put(x, "x's") == "x's"
    assert table.get(x) == "x's" and table.get(twin) is None
    table.put_all((x, twin), "pair")
    assert table.get_all((x, twin)) == "pair"
    assert table.get_all((twin, x)) is None and table.get_all((x, x)) is None


@pytest.mark.parametrize("copy_of", [copy.deepcopy,
                                     lambda o: pickle.loads(pickle.dumps(o))])
def test_a_copied_table_answers_for_no_node(copy_of):
    """A copy's entries hold copies of the nodes under the originals' ids:
    it answers neither for the originals nor for the copies."""
    x, y = S.Var(name="x", ty=S.INT), S.Var(name="y", ty=S.INT)
    table = S.Memo()
    table.put(x, 1)
    table.put(x, 2, "extra")
    table.put_all((x, y), 3)
    copied, cx, cy = copy_of((table, x, y))
    assert len(copied) == 3 and cx == x and cx is not x
    for nx, ny in ((x, y), (cx, cy)):
        assert copied.get(nx) is None and copied.get(nx, "extra") is None
        assert copied.get_all((nx, ny)) is None
    assert table.get(x) == 1 and table.get_all((x, y)) == 3


def test_extra_key_parts_keep_entries_apart():
    x, y = _Obj(), _Obj()
    table = S.Memo()
    table.put(x, "alone")
    table.put(x, "smtlib2", "smtlib2")
    table.put(x, "depth 2", 2)
    table.put(x, "facts", frozenset({"k"}))
    table.put_all((x,), "one-object tuple")
    table.put_all((x, y), "pair")
    table.put_all((x, y), "pair, extra", ("status", ("requires",)))
    table.put_all((), "no object", ("interned", 1))
    assert [table.get(x), table.get(x, "smtlib2"), table.get(x, 2),
            table.get(x, frozenset({"k"})), table.get_all((x,)), table.get_all((x, y)),
            table.get_all((x, y), ("status", ("requires",))),
            table.get_all((), ("interned", 1))] == [
        "alone", "smtlib2", "depth 2", "facts", "one-object tuple", "pair",
        "pair, extra", "no object"]
    # the parts compare by value: an equal part finds the entry
    assert table.get(x, frozenset(["k"])) == "facts"
    assert table.get(x, "sexp") is None and table.get(x, 3) is None
    assert table.get(y) is None and table.get_all((y, x)) is None


def test_every_object_of_a_key_is_pinned_while_the_table_lives():
    table = S.Memo()
    objs = [_Obj() for _ in range(4)]
    held = [weakref.ref(o) for o in objs]
    table.put(objs[0], 0)
    table.put_all((objs[1], objs[2], objs[3]), 1, "extra")
    del objs
    gc.collect()
    assert all(ref() is not None for ref in held)
    table.clear()
    gc.collect()
    assert all(ref() is None for ref in held)


def _id_uses(path: Path):
    """Line numbers where the module reads the name `id` outside
    `syntax.Memo`."""
    tree = ast.parse(path.read_text(), str(path))
    skip = {n for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name == "Memo" and path.name == "syntax.py"
            for n in ast.walk(c)}
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == "id" and isinstance(n.ctx, ast.Load)
            and n not in skip]


def test_only_the_table_calls_id():
    """Every memo keyed by node identity goes through `syntax.Memo`: no
    module of the package reads the builtin `id` anywhere else."""
    package = Path(S.__file__).parent
    uses = {p.name: _id_uses(p) for p in sorted(package.glob("*.py"))}
    assert "syntax.py" in uses
    assert {name: lines for name, lines in uses.items() if lines} == {}
