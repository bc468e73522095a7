"""Renormalized Gegenbauer polynomials, their operators, and identities."""

import math
from fractions import Fraction as F

import pytest

from breakops.gegenbauer import (
    apply_gegenbauer,
    apply_imaginary_gegenbauer,
    gamma_factor,
    gegenbauer,
    gegenbauer_coeffs,
    gegenbauer_it,
    vanishing_set,
)
from breakops.poly import Poly, monomial
from breakops.rational import GaussianRational
from breakops.verify import default_mu_values, gegenbauer_suite

MUS = [F(1, 3), F(-5, 2), F(2), F(-4), F(0)]


def _coeffs_reference(ell, mu):
    """The coefficients by a Fraction loop: mu and every power of 2 wrapped as Fractions."""
    if ell < 0:
        return []
    mu, half_up = F(mu), (ell + 1) // 2
    coeffs = [F(0)] * (ell + 1)
    for k in range(ell // 2 + 1):
        ratio = F(1)
        for i in range(ell - k - half_up):
            ratio *= mu + half_up + i
        value = ratio * (-1) ** k * F(2) ** (ell - 2 * k)
        coeffs[ell - 2 * k] = value / (math.factorial(k) * math.factorial(ell - 2 * k))
    return coeffs


def test_gegenbauer_coeffs_match_the_polynomial_and_a_fraction_loop():
    for mu in (-4, F(-3), -1, 0, 2, F(-7, 2), F(-3, 2), F(1, 2), F(1, 3)):
        for ell in range(-2, 10):
            coeffs = gegenbauer_coeffs(ell, mu)
            assert coeffs == _coeffs_reference(ell, mu), (ell, mu)
            assert all(type(c) is F for c in coeffs if c)
            poly = gegenbauer(ell, mu)
            assert poly.is_real()
            size = len(poly.coeffs)
            assert coeffs[:size] == [c.re for c in poly.coeffs] and not any(coeffs[size:]), (ell, mu)


def test_low_degree_table():
    """The first six polynomials, written out longhand."""
    for mu in MUS:
        assert gegenbauer(0, mu) == Poly([1])
        assert gegenbauer(1, mu) == monomial(1, 2)
        assert gegenbauer(2, mu) == Poly([-1, 0, 2 * (mu + 1)])
        assert gegenbauer(3, mu) == Poly([0, -2, 0, F(4, 3) * (mu + 2)])
        assert gegenbauer(4, mu) == Poly(
            [F(1, 2), 0, -2 * (mu + 2), 0, F(2, 3) * (mu + 2) * (mu + 3)]
        )
        assert gegenbauer(5, mu) == Poly(
            [0, 1, 0, -F(4, 3) * (mu + 3), 0, F(4, 15) * (mu + 3) * (mu + 4)]
        )


def test_negative_degree_is_zero():
    assert gegenbauer(-3, F(1, 2)).is_zero()
    assert gegenbauer_it(-1, F(1, 2)).is_zero()


@pytest.mark.parametrize("ell", range(13))
@pytest.mark.parametrize("mu", MUS)
def test_nonzero_for_every_parameter(ell, mu):
    g = gegenbauer(ell, mu)
    assert not g.is_zero()
    # lowest term is (-1)^[l/2]/[l/2]! * (2z)^(l mod 2), independent of mu
    low = ell - 2 * (ell // 2)
    expect = F((-1) ** (ell // 2)) * F(2) ** low
    for k in range(2, ell // 2 + 1):
        expect /= k
    assert g.coefficient(low) == GaussianRational(expect)


def test_substituted_form():
    mu = F(1, 3)
    assert gegenbauer_it(1, mu) == monomial(1, GaussianRational(F(0), F(2)))
    assert gegenbauer_it(2, mu) == Poly([-1, 0, -2 * (mu + 1)])


def test_gamma_factor():
    mu = F(2, 7)
    assert gamma_factor(mu, 3) == 1
    assert gamma_factor(mu, 4) == mu + 2
    assert gamma_factor(mu, -2) == mu - 1  # extension rule: gamma(mu,-2) = gamma(mu-1,0)
    assert gamma_factor(mu, 0) == mu


def test_gamma_factor_product():
    for mu in MUS:
        for ell in range(-6, 13):
            assert gamma_factor(mu, ell) * gamma_factor(mu, ell + 1) == mu + (ell + 1) // 2


def test_operators_annihilate():
    for mu in MUS:
        for ell in range(9):
            assert apply_gegenbauer(ell, mu, gegenbauer(ell, mu)).is_zero()
            assert apply_imaginary_gegenbauer(ell, mu, gegenbauer_it(ell, mu)).is_zero()


def test_operator_pointwise_examples():
    mu = F(1, 5)
    assert apply_imaginary_gegenbauer(0, mu, Poly([1])).is_zero()
    # hand expansion: -( (1+t^2)*2 + t*2t - 4t^2 ) = -2 at (l, mu) = (2, 0)
    assert apply_imaginary_gegenbauer(2, F(0), monomial(2)) == Poly([-2])
    assert apply_gegenbauer(0, mu, Poly([1])).is_zero()
    # hand expansion at l=1 on z^2: 2 - (2mu+3) z^2
    assert apply_gegenbauer(1, mu, monomial(2)) == Poly([2, 0, -(2 * mu + 3)])


def test_vanishing_sets():
    assert vanishing_set(4, 0) == frozenset({F(-2), F(-3)})
    assert vanishing_set(5, 2) == frozenset()
    assert vanishing_set(5, 1) == frozenset({F(-3)})
    assert vanishing_set(0, 0) == frozenset()
    with pytest.raises(ValueError):
        vanishing_set(4, 3)


def test_vanishing_set_matches_coefficients():
    # cross-check: z^4 coefficient of the degree-4 polynomial is
    # (2/3)(mu+2)(mu+3), vanishing exactly on {-2, -3}
    for mu_int in range(-10, 4):
        mu = F(mu_int)
        for ell in range(13):
            for k in range(ell // 2 + 1):
                coeff = gegenbauer(ell, mu).coefficient(ell - 2 * k)
                assert (not coeff) == (mu in vanishing_set(ell, k))


def test_degree_decay_instance():
    # both sides from the longhand table: -C3^{-2} = C1^{-2} = 2z
    assert -gegenbauer(3, F(-2)) == gegenbauer(1, F(-2))
    assert gegenbauer(1, F(-2)) == monomial(1, 2)


def test_full_identity_suite():
    results = gegenbauer_suite(max_ell=12, mu_values=default_mu_values())
    assert len(default_mu_values()) >= 20
    for check in results:
        assert check.failures == 0, check
