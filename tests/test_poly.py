"""Univariate polynomials, even-parity spaces, inflation, and symbols."""

import pickle
import random
from fractions import Fraction as F

import pytest

from breakops.poly import (
    NEG_INFINITY,
    EvenSpace,
    MultiPoly,
    Poly,
    differentiate,
    euler_apply,
    even_basis,
    inflate,
    monomial,
)
from breakops.operator import DiffOperator
from breakops.rational import GaussianRational


def test_zero_polynomial_degree_marker():
    assert Poly().degree == NEG_INFINITY
    assert Poly([0, 0]).is_zero()
    assert monomial(3).degree == 3


def test_trailing_zero_trim_and_structural_equality():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([1, 2]) != Poly([1, 2, 3])


def test_arithmetic_exact():
    f = Poly([F(1, 3), 0, 1])  # t^2 + 1/3
    g = monomial(1, 3)
    assert f * g == Poly([0, 1, 0, 3])
    assert (f + g) - g == f
    assert (-f) + f == Poly()


def test_differentiate_examples():
    assert differentiate(monomial(2)) == monomial(1, 2)
    assert differentiate(Poly([7])) == Poly()
    # termwise: 3t^3 + t -> 9t^2 + 1
    assert differentiate(Poly([0, 1, 0, 3])) == Poly([1, 0, 9])


def test_euler_examples():
    assert euler_apply(monomial(5)) == monomial(5, 5)
    assert euler_apply(Poly([1])) == Poly()
    assert euler_apply(Poly([0, 1, 1])) == Poly([0, 1, 2])


def test_even_basis():
    assert even_basis(2) == [monomial(2), Poly([1])]
    assert even_basis(-1) == []
    assert even_basis(1) == [monomial(1)]
    assert len(even_basis(7)) == 4


@pytest.mark.parametrize("b,dim", [(-2, 0), (-1, 0), (0, 1), (1, 1), (2, 2), (7, 4)])
def test_even_space_dimension(b, dim):
    assert EvenSpace(b).dimension == dim
    assert len(even_basis(b)) == dim


def test_even_space_membership():
    space = EvenSpace(4)
    assert space.contains(Poly([1, 0, -2, 0, 1]))
    assert not space.contains(monomial(3))
    assert not space.contains(monomial(6))
    assert space.contains(Poly())
    assert EvenSpace(-3).contains(Poly())


def test_inflate_examples():
    assert inflate(2, monomial(2)) == MultiPoly.term(0, 0, 2)
    expected = MultiPoly({(2, 0, 0): 1, (0, 2, 0): 1})
    assert inflate(2, Poly([1])) == expected
    assert inflate(0, Poly([1])) == MultiPoly.term(0, 0, 0)


def test_inflate_rejects_parity_violation():
    with pytest.raises(ValueError):
        inflate(2, monomial(1))
    with pytest.raises(ValueError):
        inflate(1, monomial(3))


def _random_even(rng, b):
    coeffs = [GaussianRational() for _ in range(b + 1)]
    for d in range(b % 2, b + 1, 2):
        coeffs[d] = GaussianRational(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
    return Poly(coeffs)


def test_inflate_linear_and_injective():
    rng = random.Random(7)
    for b in range(9):
        for _ in range(5):
            g1, g2 = _random_even(rng, b), _random_even(rng, b)
            assert inflate(b, g1) + inflate(b, g2) == inflate(b, g1 + g2)
            if not g1.is_zero():
                out = inflate(b, g1)
                assert not out.is_zero()
                assert out.homogeneous_degree() == b


def test_differentiate_and_euler_respect_spaces():
    rng = random.Random(11)
    for b in range(1, 10):
        g = _random_even(rng, b)
        assert EvenSpace(b - 1).contains(differentiate(g))
        assert EvenSpace(b).contains(euler_apply(g))


def test_multipoly_algebra():
    rng = random.Random(13)

    def rand():
        return MultiPoly(
            {
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)): GaussianRational(
                    F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
                )
                for _ in range(rng.randint(1, 5))
            }
        )

    for _ in range(10):
        u, v, w = rand(), rand(), rand()
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


def test_multipoly_zeta2_flip_is_involution():
    p = MultiPoly({(1, 2, 0): 3, (0, 1, 1): GaussianRational(F(0), F(1))})
    assert p.negate_zeta2().negate_zeta2() == p
    assert p.negate_zeta2().terms[(1, 2, 0)] == GaussianRational(F(3))
    assert p.negate_zeta2().terms[(0, 1, 1)] == GaussianRational(F(0), F(-1))


def test_serialization_sorted():
    p = MultiPoly({(1, 0, 0): 2, (0, 1, 0): 1})
    doc = p.to_json()
    assert doc[0]["e1"] == 0 and doc[1]["e1"] == 1
    assert Poly([F(1, 2)]).to_json() == [{"re": "1/2", "im": "0"}]


def _term_maps():
    return [
        MultiPoly({(1, 0, 2): GaussianRational(F(1, 2), F(-3)), (0, 0, 0): 4}),
        DiffOperator({(0, 1, 0, 0): F(-7, 3), (2, 0, 1, 3): GaussianRational(0, 1)}),
    ]


@pytest.mark.parametrize("value", [Poly([F(1, 2), GaussianRational(0, 1), 3])] + _term_maps())
def test_pickle_round_trip(value):
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_inexact_coefficients_are_rejected(bad):
    with pytest.raises(TypeError):
        Poly([1, bad])
    with pytest.raises(TypeError):
        monomial(2, bad)
    with pytest.raises(TypeError):
        MultiPoly({(0, 1, 0): bad})
    with pytest.raises(TypeError):
        MultiPoly.term(0, 1, 0, bad)
    with pytest.raises(TypeError):
        DiffOperator({(0, 0, 0, 0): bad})
    with pytest.raises(TypeError):
        DiffOperator({(0, 0, 0, 0): 1}).scaled(bad)
    with pytest.raises(TypeError):
        Poly([1]) * bad
    with pytest.raises(TypeError):
        MultiPoly.term(1, 0, 0) * bad


@pytest.mark.parametrize("u", _term_maps())
def test_term_maps_drop_zeros_and_share_the_algebra(u):
    kind = type(u)
    assert kind({key: 0 for key in u.terms}).is_zero()
    assert (u - u).is_zero() and (u - u) == kind()
    assert u + (-u) == kind() and -(-u) == u
    assert u.scaled(3) == u + u + u and u.scaled(F(1, 2)).scaled(2) == u
    assert u.scaled(GaussianRational(0, 1)).scaled(GaussianRational(0, 1)) == -u
    assert hash(u.scaled(2)) == hash(u + u)
