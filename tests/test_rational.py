"""Exact scalar layer: rising factorials, gamma quotients, Gaussian rationals."""

import pickle
from fractions import Fraction as F

import pytest

from breakops.rational import (
    GaussianRational,
    PoleError,
    binomial,
    format_rational,
    gamma_ratio,
    i_power,
    parse_rational,
    pochhammer,
    proportional_scalar,
)


def test_pochhammer_empty_product():
    assert pochhammer(F(5, 2), 0) == 1


def test_pochhammer_direct_products():
    # oracle: multiply the factors by hand
    assert pochhammer(F(3), 2) == 3 * 4
    assert pochhammer(F(-2), 4) == (-2) * (-1) * 0 * 1


@pytest.mark.parametrize("x", [F(3), F(-2), F(5, 2), F(-7, 3), F(0)])
@pytest.mark.parametrize("m,n", [(m, n) for m in range(0, 11, 2) for n in range(0, 11, 3)])
def test_pochhammer_additivity(x, m, n):
    assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


def test_gamma_ratio_limit_convention():
    # limit of Gamma(-1+e)/Gamma(-2+e) as e -> 0 is -2
    assert gamma_ratio(F(-2), 1) == -2
    assert gamma_ratio(F(7), 0) == 1


def test_gamma_ratio_pole():
    with pytest.raises(PoleError):
        gamma_ratio(F(1), -2)  # Gamma(-1)/Gamma(1) diverges


@pytest.mark.parametrize("x", [F(3), F(-2), F(5, 2), F(-1)])
def test_gamma_ratio_cocycle_and_inverse(x):
    for p in range(-5, 6):
        for q in range(-5, 6):
            try:
                left = gamma_ratio(x, p) * gamma_ratio(x + p, q)
                right = gamma_ratio(x, p + q)
            except PoleError:
                continue
            assert left == right
        try:
            assert gamma_ratio(x, p) * gamma_ratio(x + p, -p) == 1
        except PoleError:
            pass


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(9, 0) == 1
    assert binomial(2, 5) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_rational_wire_format():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7/3") == F(-7, 3)
    assert format_rational(F(6, 4)) == "3/2"
    assert format_rational(F(5)) == "5"
    with pytest.raises(ValueError):
        parse_rational("1.5x")


def test_gaussian_arithmetic_exact():
    u = GaussianRational(F(1, 2), F(-1, 3))
    v = GaussianRational(F(2), F(5))
    assert u + v == GaussianRational(F(5, 2), F(14, 3))
    assert u * v == GaussianRational(F(1, 2) * 2 + F(1, 3) * 5, F(1, 2) * 5 - F(1, 3) * 2)
    assert (u / v) * v == u
    assert u - u == GaussianRational()


def test_gaussian_division_by_zero_is_error():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(F(1)) / GaussianRational()


def test_gaussian_componentwise_equality_and_json():
    g = GaussianRational(F(1, 2), F(-3))
    assert g == GaussianRational(F(1, 2), F(-3))
    assert g != GaussianRational(F(1, 2), F(3))
    assert g.to_json() == {"re": "1/2", "im": "-3"}
    assert GaussianRational.from_json(g.to_json()) == g


def test_i_power_cycle():
    i = GaussianRational(F(0), F(1))
    assert i_power(1) == i
    assert i_power(2) == GaussianRational(F(-1))
    assert i_power(-1) == GaussianRational(F(0), F(-1))
    assert i_power(4) * i_power(-4) == GaussianRational(F(1))


def test_proportional_scalar_on_coefficient_maps():
    G = GaussianRational
    reference = {"x": G(F(2)), "y": G(F(-1)), "z": G()}
    assert proportional_scalar(reference, {"x": G(F(1)), "y": G(F(-1, 2))}) == G(F(1, 2))
    assert proportional_scalar(reference, {"x": G(F(0), F(1)), "y": G(F(0), F(-1, 2))}) == G(F(0), F(1, 2))
    assert proportional_scalar(reference, {"x": G(), "z": G()}) == G()
    assert proportional_scalar(reference, {"x": G(F(2)), "y": G(F(-1)), "w": G(F(1))}) is None  # key outside
    assert proportional_scalar(reference, {"x": G(F(1)), "y": G(F(1))}) is None
    assert proportional_scalar({"z": G()}, {"x": G(F(1))}) is None  # zero reference
    assert proportional_scalar({"x": F(2)}, {"x": G(F(0), F(1))}) == G(F(0), F(1, 2))  # rational reference
    G = GaussianRational
    assert proportional_scalar({"x": G(2), "y": G(4)}, {"x": 1, "y": 2}) == F(1, 2)  # plain-number values


def test_gaussian_equality_is_numeric_with_matching_hashes():
    assert GaussianRational(F(1)) == 1
    assert 1 == GaussianRational(1)
    assert GaussianRational(F(3, 4)) == F(3, 4)
    assert GaussianRational() == 0
    assert GaussianRational(1, 1) != 1
    assert GaussianRational(F(1, 2)) != 1
    assert GaussianRational(1) != "1"
    for value in (0, 1, -7, F(3, 4), F(-5, 2)):
        assert hash(GaussianRational(value)) == hash(value)
    assert {GaussianRational(2): "two"}[2] == "two"
    assert hash(GaussianRational(F(1, 2), F(-3))) == hash(GaussianRational(F(1, 2), F(-3)))


def test_gaussian_parts_are_fractions_and_immutable():
    g = GaussianRational(3, -2)
    assert type(g.re) is F and type(g.im) is F
    assert type((GaussianRational(1) / 2).re) is F
    assert GaussianRational(1) * 3 == GaussianRational(3)
    assert 3 * GaussianRational(1, 1) == GaussianRational(3, 3)
    with pytest.raises(AttributeError):
        g.re = F(5)
    with pytest.raises(AttributeError):
        del g.im
    assert g == GaussianRational(3, -2)


def test_gaussian_pickle_round_trip():
    g = GaussianRational(F(1, 2), F(-3))
    assert pickle.loads(pickle.dumps(g)) == g
    assert pickle.loads(pickle.dumps(GaussianRational())) == 0


@pytest.mark.parametrize("value", [0.5, "1/2", 1j, None])
def test_gaussian_rejects_inexact_values(value):
    with pytest.raises(TypeError):
        GaussianRational(value)
    with pytest.raises(TypeError):
        GaussianRational(1, value)
    with pytest.raises(TypeError):
        GaussianRational.of(value)
    assert GaussianRational(1).__add__(value) is NotImplemented
    assert GaussianRational(1).__mul__(value) is NotImplemented
    assert GaussianRational(1).__truediv__(value) is NotImplemented


def test_gaussian_of_is_the_one_coercion():
    g = GaussianRational(1, 2)
    assert GaussianRational.of(g) is g
    assert GaussianRational.of(3) == GaussianRational(3)
    assert GaussianRational.of(F(-1, 3)) == GaussianRational(F(-1, 3))
