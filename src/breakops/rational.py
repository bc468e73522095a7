"""Exact scalars: rationals, Gaussian rationals, and gamma/Pochhammer factors.

Every number in this package lives in Q or Q(i); there are no floats
anywhere.  Plain rationals are ``fractions.Fraction`` values, which are
always reduced and keep a positive denominator, so they already satisfy the
canonical-form invariants we need.  Inside a computation a value that is an
integer stays a Python ``int`` until a real division happens, because int
arithmetic builds no Fraction; ``narrow`` turns an integral Fraction back
into an int, and ``SystemParams`` stores integral lambda and nu through it,
so an integer parameter enters every computation as an int.  Public results
(``pochhammer``, ``gamma_ratio``, the structure constants, the dense matrix
view) are still Fractions.  Numbers in Q(i) are ``GaussianRational`` values
with two Fraction parts.  ``GaussianRational.of``
is the one place a scalar is coerced: a GaussianRational stays itself, an
int or a Fraction becomes a real one, and anything else (a float, a string)
is a TypeError.
Equality is numeric, so a real GaussianRational equals, and hashes like, the
int or Fraction of the same value.  Gamma functions are never evaluated on
their own: every gamma quotient in the constants downstream has an integer
offset between its arguments, and such a quotient is computed through the
rising factorial.  That evaluation reproduces the finite limit value of
Gamma(x+p+eps)/Gamma(x+eps) as eps -> 0 whenever the limit exists, which is
exactly the convention the closed-form constants rely on at non-positive
integer arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction

class PoleError(ArithmeticError):
    """Raised when a gamma quotient genuinely diverges."""


def narrow(x: Fraction | int) -> Fraction | int:
    """x as an int when it is an integer, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def pochhammer(x: Fraction | int, n: int) -> Fraction:
    """Rising factorial x(x+1)...(x+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError(f"pochhammer length must be non-negative, got {n}")
    out = 1
    for i in range(n):
        out *= x + i
    return Fraction(out)


def gamma_ratio(x: Fraction | int, p: int) -> Fraction:
    """Gamma(x+p)/Gamma(x) for an integer offset p, via rising factorials.

    For p >= 0 this is pochhammer(x, p), which is finite for every rational
    x and equals the limit of the quotient when x is a non-positive integer.
    For p < 0 it is 1/pochhammer(x+p, -p); a zero denominator there means
    the quotient has a genuine pole and PoleError is raised.
    """
    if p >= 0:
        return pochhammer(x, p)
    denominator = pochhammer(x + p, -p)
    if denominator == 0:
        raise PoleError(f"gamma quotient Gamma({x}+{p})/Gamma({x}) diverges")
    return 1 / denominator


def binomial(n: int, k: int) -> int:
    """Binomial coefficient; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be natural numbers")
    return math.comb(n, k)


def is_integer(x: Fraction | int) -> bool:
    return x.denominator == 1


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


_REALS = (int, Fraction)


class GaussianRational:
    """Exact complex number a+bi with rational parts a, b.

    Both parts are always ``Fraction`` values: the constructor converts a part
    only when it is not one already, and it accepts ints and Fractions alone,
    so a float or a string never becomes a part.  ``GaussianRational.of`` is
    the one coercion of a scalar.  Equality is numeric: a real Gaussian
    rational equals the int or Fraction of the same value and hashes like it.
    Instances are immutable, arithmetic is exact, and division by zero is an
    error rather than a sentinel value.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        _set_re(self, re if type(re) is Fraction else _exact_part(re))
        _set_im(self, im if type(im) is Fraction else _exact_part(im))

    @staticmethod
    def of(value) -> "GaussianRational":
        """The scalar as a GaussianRational: itself, or an int or Fraction as a real; TypeError otherwise."""
        return value if isinstance(value, GaussianRational) else GaussianRational(value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"GaussianRational is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _REALS):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _REALS):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, _REALS):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _REALS):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _REALS):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _REALS):
            return GaussianRational(self.re / other, self.im / other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        if isinstance(other, _REALS):
            return GaussianRational(other) / self
        return NotImplemented

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


# The constructor writes the parts through the slot descriptors, past the refusing __setattr__.
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__
SCALARS = (GaussianRational, *_REALS)  # what GaussianRational.of accepts


def _exact_part(part) -> Fraction:
    if isinstance(part, _REALS):
        return Fraction(part)
    raise TypeError(f"a Gaussian rational part is an int or a Fraction, not {type(part).__name__}: {part!r}")


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)

_I_CYCLE = (GR_ONE, I_UNIT, GaussianRational(-1), GaussianRational(0, -1))


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
