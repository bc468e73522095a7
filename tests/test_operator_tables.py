"""The per-degree operator tables against their polynomial-arithmetic forms.

The oracles below reach the same operators by composing ``differentiate``
and ``euler_apply`` on whole polynomials, and build the equation matrix by
feeding one monomial at a time through the equations and reading the
coefficients back.  They share no code with the weight tables under test.
"""

import random
from fractions import Fraction as F

from breakops.fsystem import (
    SystemParams,
    apply_L,
    assemble_system,
    equation_index,
    unknown_columns,
)
from breakops.gegenbauer import apply_gegenbauer, apply_imaginary_gegenbauer
from breakops.poly import Poly, ZERO_POLY, differentiate, euler_apply, monomial
from breakops.rational import GaussianRational
from test_fsystem import dense_matrix

MUS = [F(0), F(1), F(-3), F(1, 2), F(-7, 3), F(5, 4)]


def gegenbauer_oracle(ell, mu, f):
    """(1-z^2) f'' - (2mu+1) z f' + l(l+2mu) f by composition."""
    mu = F(mu)
    ddf = differentiate(differentiate(f))
    out = ddf - (euler_apply(euler_apply(f)) - euler_apply(f))
    out = out - (2 * mu + 1) * euler_apply(f)
    return out + (ell * (ell + 2 * mu)) * f


def imaginary_gegenbauer_oracle(ell, mu, f):
    """-((1+t^2) f'' + (1+2mu) t f' - l(l+2mu) f) by composition."""
    mu = F(mu)
    ddf = differentiate(differentiate(f))
    t2ddf = euler_apply(euler_apply(f)) - euler_apply(f)
    return -(ddf + t2ddf + (2 * mu + 1) * euler_apply(f) - (ell * (ell + 2 * mu)) * f)


def equation_oracle(kind, sign, j, params, fget):
    """One equation's left-hand side, with components supplied by fget(j)."""
    lam, m, N, a = params.lam, params.m, params.N, params.a
    S = imaginary_gegenbauer_oracle
    if kind == "A":
        if sign == "+":
            return S(a + m - j, lam + j - 1, fget(j)) - (2 * (N - j)) * differentiate(fget(j + 1))
        return S(a - m - j, lam + j - 1, fget(-j)) + (2 * (N - j)) * differentiate(fget(-j - 1))
    if sign == "+":
        base = fget(j)
        out = (-2 * m * (lam + a - 1) + 2 * j * (lam - 1)) * base + (2 * j) * euler_apply(base)
        return out + (N - j) * differentiate(fget(j + 1)) + (N + j) * differentiate(fget(j - 1))
    base = fget(-j)
    out = (2 * m * (lam + a - 1) + 2 * j * (lam - 1)) * base + (2 * j) * euler_apply(base)
    return out - (N + j) * differentiate(fget(-j + 1)) - (N - j) * differentiate(fget(-j - 1))


def assemble_oracle(params):
    """The equation matrix by probing every equation with every monomial unknown."""
    columns = unknown_columns(params)
    rows = []
    for kind, sign, j in equation_index(params.N):
        images = []
        for k, degree in columns:
            fget = lambda jj, k0=k, d0=degree: monomial(d0) if params.m - jj == k0 else ZERO_POLY
            images.append(equation_oracle(kind, sign, j, params, fget))
        top = max((len(p.coeffs) for p in images), default=0)
        for d in range(top):
            row = []
            for p in images:
                c = p.coefficient(d)
                assert c.is_real()
                row.append(c.re)
            rows.append(tuple(row))
    return dense_matrix(rows, len(columns))


def _random_poly(rng, degree):
    return Poly(
        [GaussianRational(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-3, 3))) for _ in range(degree + 1)]
    )


def _small_grid():
    for n_val in range(3):
        for m_val in (n_val + 1, n_val + 2):
            for a in range(m_val - n_val, m_val + n_val + 3):
                for lam in (F(1 - n_val - a), F(n_val + 1 - a), F(-1), F(1, 2)):
                    yield SystemParams(lam, lam + a, n_val, m_val)


def test_gegenbauer_operators_match_oracles():
    rng = random.Random(7)
    for ell in range(-2, 9):
        for mu in MUS:
            for degree in (0, 1, 2, 5, 10):
                f = _random_poly(rng, degree)
                assert apply_gegenbauer(ell, mu, f) == gegenbauer_oracle(ell, mu, f)
                assert apply_imaginary_gegenbauer(ell, mu, f) == imaginary_gegenbauer_oracle(ell, mu, f)
            assert apply_imaginary_gegenbauer(ell, mu, ZERO_POLY).is_zero()


def test_apply_L_matches_oracle():
    rng = random.Random(11)
    for params in _small_grid():
        probe = tuple(_random_poly(rng, rng.randint(0, params.a + 2)) for _ in range(2 * params.N + 1))
        f = lambda jj: probe[params.N - jj] if abs(jj) <= params.N else ZERO_POLY  # f_jj = g_(m-jj)
        for kind, sign, j in equation_index(params.N):
            assert apply_L(kind, sign, j, params, probe) == equation_oracle(kind, sign, j, params, f)


def test_assemble_system_matches_oracle():
    for params in _small_grid():
        matrix = assemble_system(params)
        oracle = assemble_oracle(params)
        assert matrix == oracle, params
        assert (matrix.nrows, matrix.ncols) == (oracle.nrows, oracle.ncols), params
        assert matrix.to_json() == oracle.to_json(), params
        assert all(type(x) is F for row in matrix.rows for x in row)
