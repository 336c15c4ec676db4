"""Runtime values and numeric modes.

Two numeric modes, fixed per execution:
  * rational  — real values are exact rationals. Integral rationals are
    stored as Python ints (int is a rational; mixed int/Fraction arithmetic
    and comparison are exact), everything else as fractions.Fraction.
  * binary64  — real values are Python floats (IEEE binary64 with
    round-to-nearest-even on + - * /). Overflow to infinity is an execution
    fault rather than producing non-finite values.

Ints are Python ints in both modes; arrays are Python lists held by value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExecutionFault

RATIONAL = "rational"
BINARY64 = "binary64"
MODES = (RATIONAL, BINARY64)


def norm_rational(x) -> int | Fraction:
    """Collapse integral rationals to int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def coerce_value(v, ty_kind: str, mode: str):
    """Coerce an external argument value into the representation for ty_kind."""
    if ty_kind == "int":
        if isinstance(v, bool) or not isinstance(v, int):
            raise ExecutionFault(f"expected an int argument, got {v!r}")
        return v
    if ty_kind == "real":
        if isinstance(v, bool):
            raise ExecutionFault(f"expected a real argument, got {v!r}")
        if mode == RATIONAL:
            if isinstance(v, int):
                return v
            if isinstance(v, Fraction):
                return norm_rational(v)
            if isinstance(v, float):
                if not math.isfinite(v):
                    raise ExecutionFault(f"expected a finite real argument, got {v!r}")
                return norm_rational(Fraction(v))
            raise ExecutionFault(f"expected a real argument, got {v!r}")
        if isinstance(v, (int, Fraction)):
            try:
                return float(v)
            except OverflowError:
                raise ExecutionFault("real argument out of binary64 range") from None
        if isinstance(v, float):
            return v
        raise ExecutionFault(f"expected a real argument, got {v!r}")
    if ty_kind == "bool":
        if not isinstance(v, bool):
            raise ExecutionFault(f"expected a bool argument, got {v!r}")
        return v
    raise ExecutionFault(f"cannot coerce {v!r}")


def coerce_arg(v, ty, mode: str):
    if ty.kind == "array":
        if not isinstance(v, (list, tuple)):
            raise ExecutionFault(f"expected an array argument, got {v!r}")
        return [coerce_value(x, ty.elem, mode) for x in v]
    return coerce_value(v, ty.kind, mode)


def check_finite(x: float, line=None) -> float:
    if not math.isfinite(x):
        raise ExecutionFault("real overflow in binary64 mode", line)
    return x


def decimal_text(q: Fraction):
    """The exact decimal text of q (`-1.25`, `3.0`), or None when q has no
    finite decimal expansion."""
    den = q.denominator
    d = den
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d != 1:
        return None
    num, k = q.numerator, 0
    while num % den:
        num *= 10
        k += 1
    digits = str(abs(num // den)).rjust(k + 1, "0")
    text = (digits[:-k] + "." + digits[-k:]) if k else (digits + ".0")
    return ("-" + text) if q < 0 else text


def value_repr(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, list):
        return "[" + ", ".join(value_repr(x) for x in v) + "]"
    return repr(v)
