"""Exact coefficient fields: the rationals and prime fields F_p.

Over Q a scalar is an int when it is integral and a Fraction otherwise:
`Field.of` and `Field.inverse` return an int whenever the denominator is
1, and every division goes through `Field.inverse`, so rationals cost
Fraction arithmetic only where a fraction occurs.  (A product of
Fractions that happens to be integral may stay a Fraction; it compares
and hashes equal to the int.)  Over F_p a scalar is a plain int in
[0, p): the field is not carried by the scalars but by the term order
(`OrderSpec.field`), so arithmetic code reads p once and reduces with
`% p` itself.  p == 0 stands for Q throughout, so `if p:` is the only
branch the rationals pay for.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PathAlgError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _rational(x) -> object:
    """x as a Q scalar: its numerator when it is integral, else the Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Field:
    """Descriptor for the coefficient field; char 0 means the rationals."""

    characteristic: int = 0
    zero = 0
    one = 1

    def __post_init__(self):
        if self.characteristic and not _is_prime(self.characteristic):
            raise PathAlgError(f"{self.characteristic} is not prime")

    @property
    def name(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    def of(self, value) -> object:
        """An int, Fraction, or 'p/q' string as a scalar: over Q an int or a
        non-integral Fraction, over F_p an int reduced mod p.

        Over F_p a fraction whose denominator p divides raises ZeroDivisionError;
        so does the string '7/7' over F_7, which is read before it is cancelled.
        """
        if isinstance(value, str):
            num, slash, den = value.partition("/")
            value = self.of(int(num)) * self.inverse(int(den)) if slash else int(num)
        p = self.characteristic
        if not p:
            return _rational(value)
        if isinstance(value, Fraction):
            return value.numerator * self.inverse(value.denominator) % p
        return value % p

    def inverse(self, c) -> object:
        """1 / c; ZeroDivisionError when c is zero (mod p)."""
        p = self.characteristic
        if not p:
            return _rational(1 / Fraction(c))
        if not c % p:
            raise ZeroDivisionError(f"{c} is not invertible in F{p}")
        return pow(c, -1, p)


RATIONALS = Field(0)
