"""Linear forms: a constant plus a key -> coefficient map.

The simplifier and the prover both normalise int/real terms to this form,
through one walk from a term to a form (`simplify.linearize`); the prover
takes the forms `simplify` computed for each comparison and rekeys their
atoms. This module holds the only copy of the
arithmetic over it. Coefficients and constant are exact numbers: the
simplifier's are ints, and `Fraction`s only where a real literal or a
division by a constant brings one in; the prover's constraints hold
Python ints, scaled to coprime integers by `primitive`. A zero
coefficient is never stored, so a form is constant exactly when it has no
keys.

A form is never changed after it is built: every operation returns a new
one (or the form itself). So a form computes its key, and the key of its
negation, at most once and keeps them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Lin:
    """const + sum(coeff * key) over hashable, ordered keys."""
    __slots__ = ("const", "coeffs", "_key", "_neg_key")

    def __init__(self, const=0, coeffs=None):
        self.const = const
        self.coeffs = coeffs or {}      # key -> nonzero int or Fraction
        self._key = self._neg_key = None

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def add(self, other: Lin, k=1) -> Lin:
        """self + k * other. A key of both is held by other's key object,
        which matters only to keys that carry data."""
        coeffs = dict(self.coeffs)
        for key, v in other.coeffs.items():
            c = coeffs.pop(key, 0) + k * v
            if c:
                coeffs[key] = c
        return Lin(self.const + k * other.const, coeffs)

    def scale(self, k) -> Lin:
        if k == 1:
            return self
        if k == 0:
            return Lin()
        return Lin(self.const * k, {key: v * k for key, v in self.coeffs.items()})

    def key(self) -> tuple:
        """A hashable identity: equal forms have equal keys."""
        if self._key is None:
            self._key = self.const, tuple(sorted(self.coeffs.items()))
        return self._key

    def neg_key(self) -> tuple:
        """The key of the negated form, `scale(-1).key()`."""
        if self._neg_key is None:
            const, items = self.key()
            self._neg_key = -const, tuple((k, -v) for k, v in items)
        return self._neg_key

    def ratio(self, other: Lin):
        """The k with self == k * other, or None when there is none. A
        constant `other` gives None: no key fixes k."""
        if not other.coeffs or self.coeffs.keys() != other.coeffs.keys():
            return None
        first = next(iter(other.coeffs))
        k = Fraction(self.coeffs[first], other.coeffs[first])
        if self.const != k * other.const:
            return None
        if any(self.coeffs[key] != k * v for key, v in other.coeffs.items()):
            return None
        return k

    def primitive(self) -> Lin:
        """The multiple of self by a positive factor whose coefficients and
        constant are coprime ints: `2/3 x - 1/2` gives `4 x - 3`. The sign
        of every coefficient is kept; zero stays zero."""
        try:
            g = gcd(self.const, *self.coeffs.values())
        except TypeError:       # a Fraction: clear the denominators first
            den = lcm(self.const.denominator,
                      *(v.denominator for v in self.coeffs.values()))
            return Lin(self.const.numerator * (den // self.const.denominator),
                       {key: v.numerator * (den // v.denominator)
                        for key, v in self.coeffs.items()}).primitive()
        if g <= 1:
            return self
        return Lin(self.const // g, {key: v // g for key, v in self.coeffs.items()})
