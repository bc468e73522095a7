"""Renormalized Gegenbauer polynomials and their differential operators.

The classical Gegenbauer polynomial C_l^mu degenerates (vanishes
identically) at certain non-positive parameters mu.  Rescaling by
Gamma(mu)/Gamma(mu + [(l+1)/2]) removes the degeneration: the renormalized
polynomial is nonzero for every rational mu, because its lowest term
(-1)^[l/2]/[l/2]! * (2z)^(l-2[l/2]) carries no mu dependence at all.  By
convention the polynomial of negative degree is identically zero.

Coefficients are assembled from rising factorials rather than gamma values;
the quotient Gamma(mu+l-k)/Gamma(mu+[(l+1)/2]) is pole-free over the whole
summation range since l-k >= [(l+1)/2] there, so everything stays exact for
every rational parameter, including the negative integers where the
unnormalized polynomial collapses.

Two second-order operators act here.  The Gegenbauer operator

    G_l^mu f = (1-z^2) f'' - (2mu+1) z f' + l(l+2mu) f

annihilates the degree-l renormalized polynomial, and its even-parity
polynomial kernel is exactly one-dimensional.  Substituting z = it turns it
into the imaginary form

    S_l^mu f = -((1+t^2) f'' + (1+2mu) t f' - l(l+2mu) f)

whose kernel in the even space is spanned by the substituted polynomial.
Both are written once, as per-degree weights: t^d goes to (l-d)(l+d+2mu) t^d,
which is l(l+2mu) - d(d-1) - (2mu+1)d, plus d(d-1) t^(d-2) for G, minus for S.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rational import i_power, pochhammer, sign_pow
from .poly import Poly, apply_weights


def gegenbauer_coeffs(ell: int, mu: Fraction | int) -> list:
    """Rational coefficients of the renormalized polynomial of degree ell, indexed by degree; [] for ell < 0."""
    if ell < 0:
        return []
    half_up = (ell + 1) // 2
    coeffs = [0] * (ell + 1)
    for k in range(ell // 2 + 1):
        n = ell - 2 * k
        ratio = pochhammer(mu + half_up, ell - k - half_up)
        coeffs[n] = ratio * (sign_pow(k) << n) / (math.factorial(k) * math.factorial(n))
    return coeffs


def gegenbauer(ell: int, mu: Fraction | int) -> Poly:
    """Renormalized Gegenbauer polynomial of degree ell in z."""
    return Poly(gegenbauer_coeffs(ell, mu))


def gegenbauer_it(ell: int, mu: Fraction | int) -> Poly:
    """The renormalized polynomial with z replaced by i*t."""
    base = gegenbauer(ell, mu)
    return Poly([base.coefficient(d) * i_power(d) for d in range(len(base.coeffs))])


def gamma_factor(mu: Fraction | int, ell: int) -> Fraction:
    """1 for odd ell, mu + ell/2 for even ell, valid for every integer ell."""
    if ell % 2:
        return Fraction(1)
    return Fraction(mu) + Fraction(ell, 2)


def gegenbauer_weights(ell: int, mu: Fraction | int, imaginary: bool = False) -> tuple:
    """(shift, weight) pairs of G, or of S when imaginary is set."""
    two_mu = 2 * mu
    sign = -1 if imaginary else 1
    return ((0, lambda d: (ell - d) * (ell + d + two_mu)), (-2, lambda d: sign * d * (d - 1)))


def apply_gegenbauer(ell: int, mu: Fraction | int, f: Poly) -> Poly:
    """(1-z^2) f'' - (2mu+1) z f' + l(l+2mu) f."""
    return apply_weights(gegenbauer_weights(ell, mu), f)


def apply_imaginary_gegenbauer(ell: int, mu: Fraction | int, f: Poly) -> Poly:
    """-((1+t^2) f'' + (1+2mu) t f' - l(l+2mu) f)."""
    return apply_weights(gegenbauer_weights(ell, mu, imaginary=True), f)


def vanishing_set(ell: int, k: int) -> frozenset[Fraction]:
    """Parameters mu at which the z^(l-2k) coefficient vanishes.

    Empty for ell in {0, 1} and for k = floor(ell/2) (the lowest term never
    vanishes).
    """
    if ell < 0 or k < 0:
        raise ValueError("degree and coefficient index must be natural numbers")
    if k > ell // 2:
        raise ValueError(f"coefficient index {k} exceeds floor({ell}/2)")
    if ell <= 1 or k == ell // 2:
        return frozenset()
    half_up = (ell + 1) // 2
    return frozenset(Fraction(-half_up - d) for d in range(ell // 2 - k))
