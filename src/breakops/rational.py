"""Exact scalars: rationals, Gaussian rationals, and gamma/Pochhammer factors.

Every number in this package lives in Q or Q(i); there are no floats
anywhere.  Plain rationals are ``fractions.Fraction`` values, which are
always reduced and keep a positive denominator, so they already satisfy the
canonical-form invariants we need.  Gamma functions are never evaluated on
their own: every gamma quotient in the constants downstream has an integer
offset between its arguments, and such a quotient is computed through the
rising factorial.  That evaluation reproduces the finite limit value of
Gamma(x+p+eps)/Gamma(x+eps) as eps -> 0 whenever the limit exists, which is
exactly the convention the closed-form constants rely on at non-positive
integer arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


class PoleError(ArithmeticError):
    """Raised when a gamma quotient genuinely diverges."""


def pochhammer(x: Fraction | int, n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError(f"pochhammer length must be non-negative, got {n}")
    out = Fraction(1)
    x = Fraction(x)
    for i in range(n):
        out *= x + i
    return out


def gamma_ratio(x: Fraction | int, p: int) -> Fraction:
    """Gamma(x+p)/Gamma(x) for an integer offset p, via rising factorials.

    For p >= 0 this is pochhammer(x, p), which is finite for every rational
    x and equals the limit of the quotient when x is a non-positive integer.
    For p < 0 it is 1/pochhammer(x+p, -p); a zero denominator there means
    the quotient has a genuine pole and PoleError is raised.
    """
    if p >= 0:
        return pochhammer(x, p)
    denominator = pochhammer(Fraction(x) + p, -p)
    if denominator == 0:
        raise PoleError(f"gamma quotient Gamma({x}+{p})/Gamma({x}) diverges")
    return 1 / denominator


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be natural numbers")
    if k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def floor_frac(x: Fraction | int) -> int:
    """Floor toward minus infinity, the bracket [x] used by the constants."""
    return math.floor(Fraction(x))


def is_integer(x: Fraction | int) -> bool:
    return Fraction(x).denominator == 1


def sign_pow(k: int) -> int:
    """(-1)**k for any integer k."""
    return -1 if k % 2 else 1


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" wire format (q omitted when 1)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x: Fraction | int) -> str:
    return str(Fraction(x))


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number a+bi with rational a, b.

    Equality is componentwise, arithmetic is exact, and division by zero is
    an error rather than a sentinel value.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return None

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return imag
        joiner = "+" if self.im > 0 else ""
        return f"{self.re}{joiner}{imag}"

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json(cls, doc: dict) -> "GaussianRational":
        return cls(parse_rational(doc["re"]), parse_rational(doc["im"]))


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))
I_UNIT = GaussianRational(Fraction(0), Fraction(1))

_I_CYCLE = (
    GR_ONE,
    I_UNIT,
    GaussianRational(Fraction(-1)),
    GaussianRational(Fraction(0), Fraction(-1)),
)


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k."""
    return _I_CYCLE[k % 4]


def proportional_scalar(reference: dict, other: dict) -> GaussianRational | None:
    """The c with other = c * reference on maps to Gaussian rationals; None if none or reference is 0."""
    support = [key for key, u in reference.items() if u]
    if not support or any(v and not reference.get(key) for key, v in other.items()):
        return None
    scalar = other.get(support[0], GR_ZERO) / reference[support[0]]
    return scalar if all(other.get(key, GR_ZERO) == scalar * reference[key] for key in support) else None
