"""Polynomials over Q(i): univariate, even-parity subspaces, and symbols.

``Poly`` is a dense univariate polynomial with GaussianRational coefficients
(the variable is written t throughout).  ``EvenSpace(b)`` is the span of the
monomials t^(b-2j); its members all have degree at most b with every exponent
congruent to b mod 2, and the space is zero for b < 0.

``MultiPoly`` is a sparse polynomial in three variables (zeta1, zeta2, zeta3)
and hosts the polynomial symbols of constant-coefficient operators.  The
inflation map sends g in EvenSpace(b) to the homogeneous degree-b polynomial
obtained by replacing each monomial c*t^s with c*(zeta1^2+zeta2^2)^((b-s)/2)
* zeta3^s; it is linear and injective on the even space and only produces a
polynomial there, so non-even input is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import GR_ZERO, SCALARS, GaussianRational, binomial

NEG_INFINITY = float("-inf")


class Poly:
    """Dense univariate polynomial, coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(map(GaussianRational.of, coeffs))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        """Degree, with the zero polynomial at minus infinity."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, d: int) -> GaussianRational:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return GR_ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(d) + other.coefficient(d) for d in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(d) - other.coefficient(d) for d in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly()
            out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
            return Poly(out)
        if isinstance(other, SCALARS):
            return Poly([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            term = f"({c})" if d == 0 else (f"({c})t" if d == 1 else f"({c})t^{d}")
            parts.append(term)
        return "Poly(" + " + ".join(parts) + ")"

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]


ZERO_POLY = Poly()


def monomial(degree: int, coeff=1) -> Poly:
    return Poly([GR_ZERO] * degree + [coeff])


def differentiate(f: Poly) -> Poly:
    """Formal derivative d/dt."""
    return Poly([f.coeffs[d] * d for d in range(1, len(f.coeffs))])


def euler_apply(f: Poly) -> Poly:
    """Euler operator t d/dt, which scales each monomial by its degree."""
    return Poly([f.coeffs[d] * d for d in range(len(f.coeffs))])


def apply_weights(weights, f: Poly) -> Poly:
    """The operator sending t^d to the sum of weight(d) t^(d+shift) over (shift <= 0, weight) pairs.

    Every second-order operator of the package is written down once this way.
    """
    re, im = [0] * len(f.coeffs), [0] * len(f.coeffs)
    for d, c in enumerate(f.coeffs):
        if not c:
            continue
        for shift, weight in weights:
            if (w := weight(d)) and d + shift >= 0:
                re[d + shift] += c.re * w
                im[d + shift] += c.im * w
    return Poly(map(GaussianRational, re, im))


def even_basis(b: int) -> list[Poly]:
    """Monomial basis t^(b-2j), j = 0..floor(b/2), of the even-parity space."""
    if b < 0:
        return []
    return [monomial(b - 2 * j) for j in range(b // 2 + 1)]


@dataclass(frozen=True)
class EvenSpace:
    """The span of t^(b-2j); degrees bounded by b with fixed parity."""

    bound: int

    @property
    def dimension(self) -> int:
        return self.bound // 2 + 1 if self.bound >= 0 else 0

    def contains(self, f: Poly) -> bool:
        if f.is_zero():
            return True
        if self.bound < 0 or f.degree > self.bound:
            return False
        parity = self.bound % 2
        return all(d % 2 == parity or not f.coeffs[d] for d in range(len(f.coeffs)))


class TermMap:
    """Sparse map from monomial keys to nonzero GaussianRational coefficients.

    The shared base of ``MultiPoly`` and ``DiffOperator``: construction
    coerces every coefficient and drops the zero ones, so two maps with the
    same terms are equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        of = GaussianRational.of
        self.terms = {tuple(key): c for key, value in (terms or {}).items() if (c := of(value))}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, value in other.terms.items():
            out[key] = out.get(key, GR_ZERO) + value
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def scaled(self, scalar):
        """Every coefficient times the scalar; TypeError when it is not an exact scalar."""
        scalar = GaussianRational.of(scalar)
        return type(self)({k: v * scalar for k, v in self.terms.items()})


class MultiPoly(TermMap):
    """Sparse polynomial in (zeta1, zeta2, zeta3) over GaussianRational."""

    __slots__ = ()

    @classmethod
    def term(cls, e1: int, e2: int, e3: int, coeff=1) -> "MultiPoly":
        return cls({(e1, e2, e3): coeff})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            out: dict[tuple, GaussianRational] = {}
            for (a1, a2, a3), u in self.terms.items():
                for (b1, b2, b3), v in other.terms.items():
                    key = (a1 + b1, a2 + b2, a3 + b3)
                    out[key] = out.get(key, GR_ZERO) + u * v
            return MultiPoly(out)
        if isinstance(other, SCALARS):
            return self.scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def negate_zeta2(self) -> "MultiPoly":
        """Substitute zeta2 -> -zeta2."""
        return MultiPoly({k: (-v if k[1] % 2 else v) for k, v in self.terms.items()})

    def homogeneous_degree(self):
        """Common total degree of all terms, None if inhomogeneous or zero."""
        degrees = {sum(k) for k in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = [f"({v})*z1^{k[0]}z2^{k[1]}z3^{k[2]}" for k, v in sorted(self.terms.items())]
        return "MultiPoly(" + " + ".join(bits) + ")"

    def to_json(self) -> list:
        return [
            {"e1": k[0], "e2": k[1], "e3": k[2], "coeff": v.to_json()}
            for k, v in sorted(self.terms.items())
        ]


def inflate(b: int, g: Poly) -> MultiPoly:
    """Homogenize g in EvenSpace(b) into (zeta1^2+zeta2^2)^((b-s)/2) zeta3^s form.

    Rejects input outside the even space: there the substitution would not
    produce a polynomial, and silently truncating would mask caller bugs.
    """
    if not EvenSpace(b).contains(g):
        raise ValueError(f"polynomial is not in the even-parity space of bound {b}")
    out: dict[tuple, GaussianRational] = {}
    for s in range(len(g.coeffs)):
        c = g.coeffs[s]
        if not c:
            continue
        u = (b - s) // 2
        for i in range(u + 1):
            key = (2 * i, 2 * (u - i), s)
            out[key] = out.get(key, GR_ZERO) + c * binomial(u, i)
    return MultiPoly(out)


@dataclass(frozen=True)
class VectorSymbol:
    """Tuple of three-variable symbol polynomials, one per basis covector."""

    components: tuple[MultiPoly, ...]

    def __len__(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def to_json(self) -> list:
        return [c.to_json() for c in self.components]
