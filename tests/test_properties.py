"""Property tests: GaussianRational against a pair-of-Fractions model, the
existence predicate against the nullspace over random parameter points of
both signs of m, the two operator emissions against each other at random
classified points, the canonical read-off against the symbol route, the
symbol pull-back against its term-by-term reference on random symbols, and
the rising factorials against a Fraction loop.

Opt-in: the module is skipped when hypothesis is not installed.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from breakops.closedform import classify, dual_solution, lambda_set  # noqa: E402
from breakops.fsystem import SystemParams, solve_xi  # noqa: E402
from breakops.operator import (  # noqa: E402
    compare_up_to_scalar,
    emit_operator,
    symbol_psi,
    symbol_to_operator,
)
from breakops.poly import MultiPoly, VectorSymbol  # noqa: E402
from breakops.rational import GaussianRational, PoleError, gamma_ratio, pochhammer  # noqa: E402
from test_operator import _symbol_to_operator_reference  # noqa: E402

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
reals = st.one_of(st.integers(-50, 50), fractions)
pairs = st.tuples(fractions, fractions)


def model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def model_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def parts(g):
    assert type(g.re) is Fraction and type(g.im) is Fraction
    return (g.re, g.im)


@given(pairs, pairs)
def test_gaussian_arithmetic_matches_pair_model(x, y):
    u, v = GaussianRational(*x), GaussianRational(*y)
    assert parts(u + v) == (x[0] + y[0], x[1] + y[1])
    assert parts(u - v) == (x[0] - y[0], x[1] - y[1])
    assert parts(-u) == (-x[0], -x[1])
    assert parts(u.conjugate()) == (x[0], -x[1])
    assert parts(u * v) == model_mul(x, y)
    if y != (0, 0):
        assert parts(u / v) == model_div(x, y)
    else:
        with pytest.raises(ZeroDivisionError):
            u / v
    assert (u == v) == (x == y)
    assert bool(u) == (x != (0, 0))
    if x == y:
        assert hash(u) == hash(v)


@given(pairs, reals)
def test_gaussian_mixed_with_reals_matches_pair_model(x, r):
    u = GaussianRational(*x)
    assert parts(u + r) == parts(r + u) == (x[0] + r, x[1])
    assert parts(u - r) == (x[0] - r, x[1])
    assert parts(r - u) == (r - x[0], -x[1])
    assert parts(u * r) == parts(r * u) == (x[0] * r, x[1] * r)
    if r:
        assert parts(u / r) == (x[0] / r, x[1] / r)
    if x != (0, 0):
        assert parts(r / u) == model_div((Fraction(r), Fraction(0)), x)
    assert (u == r) == (x == (r, 0)) == (r == u)
    assert (GaussianRational(r) == r) and hash(GaussianRational(r)) == hash(r)


def fraction_loop_pochhammer(x, n):
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(x) + i
    return out


@given(reals, st.integers(0, 8))
def test_pochhammer_is_a_fraction_matching_a_fraction_loop(x, n):
    got = pochhammer(x, n)
    assert type(got) is Fraction and got == fraction_loop_pochhammer(x, n)


@example(1, -2)
@example(Fraction(1), -2)
@given(reals, st.integers(-8, 8))
def test_gamma_ratio_is_a_fraction_or_a_pole(x, p):
    if p < 0 and fraction_loop_pochhammer(Fraction(x) + p, -p) == 0:
        with pytest.raises(PoleError):
            gamma_ratio(x, p)
        return
    expected = fraction_loop_pochhammer(x, p) if p >= 0 else 1 / fraction_loop_pochhammer(Fraction(x) + p, -p)
    got = gamma_ratio(x, p)
    assert type(got) is Fraction and got == expected


@st.composite
def points(draw):
    """(lambda, a, N, m): lambda rational, or an integer at or next to the admissible set.

    The predicate holds for integer lambda <= 1 - m with 1 - N <= lambda + a <= N + 1.
    """
    N = draw(st.integers(0, 2))
    m = N + draw(st.integers(1, 3))
    a = draw(st.integers(0, 6))
    near = st.integers(min(-N - a, 1 - m), 2 - m).map(Fraction)
    lam = draw(st.one_of(near, st.fractions(min_value=-10, max_value=3, max_denominator=6)))
    return lam, a, N, m


@settings(max_examples=100, deadline=None)
@given(points())
def test_predicate_dimension_equals_nullspace_dimension(point):
    lam, a, N, m = point
    assert classify(SystemParams(lam, lam + a, N, m)).dimension == solve_xi(SystemParams(lam, lam + a, N, m)).dimension


@settings(max_examples=100, deadline=None)
@given(points())
def test_predicate_at_negative_m_equals_the_positive_nullspace_dimension(point):
    lam, a, N, m = point
    assert classify(SystemParams(lam, lam + a, N, -m)).dimension == solve_xi(SystemParams(lam, lam + a, N, m)).dimension


@st.composite
def classified_points(draw):
    """A point where the space is a line: N <= 2, either sign of m, lambda in Lambda(N, a)."""
    N = draw(st.integers(0, 2))
    m = N + draw(st.integers(1, 3))
    a = draw(st.integers(m - N, m + N + 2))
    lam = draw(st.sampled_from(sorted(lambda_set(N, a, m))))
    sign = draw(st.sampled_from((1, -1)))
    return SystemParams(Fraction(lam), Fraction(lam + a), N, sign * m)


@settings(max_examples=40, deadline=None)
@given(classified_points())
def test_paper_and_canonical_emissions_agree(params):
    paper = emit_operator(params, "paper")
    scalar = compare_up_to_scalar(paper, emit_operator(params, "canonical"))
    assert scalar is not None and scalar
    assert paper.orders() == {params.a}


@settings(max_examples=40, deadline=None)
@given(classified_points())
def test_canonical_read_off_matches_the_symbol_route(params):
    oriented = params if params.m > 0 else params.mirrored()
    psi = symbol_psi(oriented, solve_xi(oriented).generator)
    if params.m < 0:
        psi = dual_solution(psi, oriented)
    assert emit_operator(params, "canonical") == symbol_to_operator(psi)


# e2 runs over every residue mod 4, so every power of i in the pull-back is met;
# an empty dictionary is an empty component
symbol_components = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 7), st.integers(0, 3)),
    st.builds(GaussianRational, fractions, fractions),
    max_size=6,
).map(MultiPoly)


@example(VectorSymbol((MultiPoly(), MultiPoly({(1, 3, 0): GaussianRational(Fraction(1, 2), Fraction(-2, 3))}))))
@example(VectorSymbol(tuple(MultiPoly({(2, e2, 1): GaussianRational(Fraction(e2 + 1, 6), Fraction(-1, 4))})
                            for e2 in range(4))))
@given(st.lists(symbol_components, min_size=1, max_size=4).map(lambda cs: VectorSymbol(tuple(cs))))
def test_symbol_to_operator_matches_the_term_by_term_reference(psi):
    got = symbol_to_operator(psi)
    assert list(got.terms.items()) == list(_symbol_to_operator_reference(psi).terms.items())
