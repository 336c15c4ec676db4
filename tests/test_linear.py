from fractions import Fraction
from math import gcd

import pytest

from miniwhy.linear import Lin

F = Fraction


def test_add_cancels_and_never_stores_zero():
    x_y = Lin(F(1), {"x": F(1), "y": F(2)})
    out = x_y.add(Lin(F(3), {"y": F(1), "z": F(-1)}), -2)
    assert out.key() == (F(-5), (("x", F(1)), ("z", F(2))))
    assert "y" not in out.coeffs
    assert x_y.add(x_y, -1).is_const
    assert x_y.add(x_y, -1).coeffs == {}
    # the operands are left as they were
    assert x_y.key() == (F(1), (("x", F(1)), ("y", F(2))))


def test_scale():
    x = Lin(F(2), {"x": F(3)})
    assert x.scale(F(-1, 3)).key() == (F(-2, 3), (("x", F(-1)),))
    assert x.scale(0).key() == (0, ())
    assert x.scale(1).key() == x.key()


def test_key_is_equal_for_equal_forms():
    a = Lin(F(1), {"x": F(1), "y": F(2)})
    b = Lin(F(1), {"y": F(2), "x": F(1)})
    assert a.key() == b.key() and hash(a.key()) == hash(b.key())
    assert a.key() != a.scale(2).key()


def test_keys_are_computed_once_and_match_a_fresh_computation():
    for lin in (Lin(F(1), {"y": F(2), "x": F(-1, 3)}), Lin(-4, {"b": 3, "a": -1}),
                Lin(), Lin(7)):
        key = lin.key()
        assert key == Lin(lin.const, dict(lin.coeffs)).key()
        assert lin.key() is key
        assert lin.neg_key() == lin.scale(-1).key()
        assert lin.neg_key() is lin.neg_key()
        assert lin.scale(-1).neg_key() == key


def test_ratio():
    x1 = Lin(F(1), {"x": F(1)})
    assert x1.scale(F(-3, 2)).ratio(x1) == F(-3, 2)
    assert Lin(F(1), {"x": F(2)}).ratio(x1) is None     # constants disagree
    assert Lin(F(0), {"y": F(1)}).ratio(x1) is None     # keys disagree
    assert x1.ratio(Lin(F(5))) is None                  # no key fixes k


def test_ratio_is_exact_on_int_coefficients():
    # 1/49 is no float: 49 * (1 / 49) == 0.9999999999999999
    r = Lin(0, {"x": 1, "y": 49}).ratio(Lin(0, {"x": 49, "y": 2401}))
    assert r == F(1, 49) and type(r) is Fraction
    assert type(Lin(0, {"x": 4}).ratio(Lin(0, {"x": 2}))) is Fraction


@pytest.mark.parametrize("form, expected", [
    (Lin(F(-1, 2), {"x": F(2, 3)}), (-3, (("x", 4),))),
    (Lin(F(6), {"a": F(-4), "b": F(2)}), (3, (("a", -2), ("b", 1)))),
    (Lin(-6, {"a": 4, "b": -10}), (-3, (("a", 2), ("b", -5)))),
    (Lin(0, {"a": -7}), (0, (("a", -1),))),
    (Lin(F(3, 4), {"x": F(-9, 8), "y": F(3, 2)}), (2, (("x", -3), ("y", 4)))),
    (Lin(F(-3, 2)), (-1, ())),
    (Lin(F(5)), (1, ())),
    (Lin(), (0, ())),
])
def test_primitive(form, expected):
    p = form.primitive()
    assert p.key() == expected
    values = [p.const, *p.coeffs.values()]
    assert all(type(v) is int for v in values)
    # a positive multiple: the ratio to the original form is positive, and
    # every sign is kept
    if form.coeffs:
        assert p.ratio(form) > 0
    for key, v in form.coeffs.items():
        assert (v > 0) == (p.coeffs[key] > 0)
    assert (form.const > 0) == (p.const > 0) and (form.const < 0) == (p.const < 0)
    if any(values):
        assert gcd(*values) == 1


def test_primitive_of_a_primitive_form_is_itself():
    p = Lin(3, {"x": -2, "y": 5})
    assert p.primitive() is p


def test_forms_over_ints_stay_ints():
    assert type(Lin().const) is int
    out = Lin(2, {"x": 3}).add(Lin(1, {"x": 1, "y": 4}), -2).scale(-1)
    assert out.key() == (0, (("x", -1), ("y", 8)))
    assert all(type(v) is int for v in (out.const, *out.coeffs.values()))
