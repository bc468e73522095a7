"""Classification, constants, closed-form generator, duality, compatibility."""

import random
from fractions import Fraction as F

import pytest

from breakops.closedform import (
    aux_constants,
    classify,
    closed_solution,
    consistency_polynomials,
    dual_solution,
    const_a,
    const_b,
    lambda_set,
    structure_constants,
)
from breakops.fsystem import (
    NoSolutionError,
    SolutionVector,
    SystemParams,
    UnsupportedRegimeError,
    apply_L,
    equation_index,
    proportionality,
    solve_xi,
)
from breakops.gegenbauer import gamma_factor, gegenbauer_it
from breakops.poly import MultiPoly, Poly, VectorSymbol
from breakops.rational import GaussianRational, i_power, sign_pow


def test_lambda_set_enumeration():
    assert lambda_set(1, 3, 2) == frozenset({-3, -2, -1})
    assert lambda_set(0, 4, 3) == frozenset({-3})
    # interval form for a >= m+N
    assert lambda_set(1, 5, 2) == frozenset({-5, -4, -3})
    with pytest.raises(ValueError):
        lambda_set(1, 0, 2)


def test_lambda_set_matches_interval_forms():
    for n_val in range(4):
        for m_val in range(n_val + 1, n_val + 4):
            for a in range(m_val - n_val, m_val + n_val + 5):
                got = lambda_set(n_val, a, m_val)
                if a >= m_val + n_val:
                    expect = set(range(1 - n_val - a, n_val + 2 - a))
                else:
                    expect = set(range(1 - n_val - a, 2 - m_val))
                assert got == expect, (n_val, m_val, a)


def test_classify_examples():
    assert classify(SystemParams(F(-1), F(2), 1, 2)).dimension == 1
    assert classify(SystemParams(F(-1), F(3), 1, 2)).dimension == 0
    assert classify(SystemParams(F(0), F(1), 0, 1)).dimension == 1
    with pytest.raises(UnsupportedRegimeError):  # the record rejects |m| <= N before classify
        classify(SystemParams(F(0), F(0), 2, 1))


def test_classification_flags():
    one = classify(SystemParams(F(-1), F(2), 1, 2))
    assert one.lambda_admissible and one.nu_admissible
    assert one.sporadic and one.all_sbos_differential
    zero = classify(SystemParams(F(1, 2), F(7, 2), 1, 2))
    assert zero.dimension == 0 and not zero.sporadic
    assert zero.all_sbos_differential
    assert classify(SystemParams(F(-5), F(2), 1, -2)).dimension == 1  # negative m, same predicate


def test_classify_agrees_with_lambda_set():
    for n_val in range(3):
        for m_val in range(n_val + 1, n_val + 4):
            for a in range(m_val - n_val, m_val + n_val + 4):
                members = lambda_set(n_val, a, m_val)
                for lam in range(1 - n_val - a - 2, n_val + 3 - a):
                    predicted = classify(SystemParams(F(lam), F(lam + a), n_val, m_val)).dimension
                    assert predicted == (1 if lam in members else 0), (n_val, m_val, a, lam)


def test_structure_constants_reference_values():
    # 2B(1,0) = 4 and B(1,1) = (m+1)(2-nu) at N = 1, every admissible point
    for m_val in (2, 3, 5):
        for nu in (0, 1, 2):
            p = SystemParams(F(nu - m_val - 1), F(nu), 1, m_val)
            assert structure_constants(1, 0, p).b_const == 2
            assert structure_constants(1, 1, p).b_const == (m_val + 1) * (2 - nu)
    assert structure_constants(0, 0, SystemParams(F(-1), F(1), 0, 2)).gamma == 1


def test_structure_constants_validation():
    p = SystemParams(F(-1), F(2), 1, 2)
    with pytest.raises(ValueError):
        structure_constants(3, 0, p)
    with pytest.raises(ValueError):
        structure_constants(1, 2, p)
    with pytest.raises(ValueError):
        structure_constants(0, 0, SystemParams(F(-1), F(1, 2), 1, 2))


def test_aux_gamma_lemmas():
    for n_val in (1, 2, 3):
        for m_val in (n_val + 1, n_val + 2):
            for a in (m_val - n_val, m_val, m_val + n_val + 1):
                for lam in (-m_val, 1 - m_val, -a - n_val, 2):
                    p = SystemParams(F(lam), F(lam + a), n_val, m_val)
                    assert aux_constants(n_val, 0, p).gamma_plus == 1
                    assert aux_constants(n_val, 0, p).gamma_minus == 1
                    for j in range(n_val):
                        cur = aux_constants(j, 0, p)
                        nxt = aux_constants(j + 1, 0, p)
                        step_p = gamma_factor(F(lam) + n_val - 1, a + m_val - 2 * n_val + j)
                        step_m = gamma_factor(F(lam) + n_val - 1, a - m_val - 2 * n_val + j)
                        assert cur.gamma_plus == nxt.gamma_plus * step_p
                        assert cur.gamma_minus == nxt.gamma_minus * step_m


def test_aux_gamma_product_form_and_zero_link():
    for n_val in (2, 3):
        m_val = n_val + 1
        for a in (m_val, m_val + 2):
            for lam in range(-a - n_val - 2, 3):
                p = SystemParams(F(lam), F(lam + a), n_val, m_val)
                for j in range(n_val):
                    prod_p = F(1)
                    prod_m = F(1)
                    for d in range(1, n_val - j + 1):
                        prod_p *= gamma_factor(F(lam) + n_val - 1, a + m_val - n_val - d)
                        prod_m *= gamma_factor(F(lam) + n_val - 1, a - m_val - n_val - d)
                    assert aux_constants(j, 0, p).gamma_plus == prod_p
                    assert aux_constants(j, 0, p).gamma_minus == prod_m
                all_nonzero = all(
                    aux_constants(j, 0, p).gamma_plus != 0 for j in range(n_val)
                )
                assert all_nonzero == (aux_constants(0, 0, p).gamma_plus != 0)


def test_d_constant_vanishing():
    for n_val in (2, 3):
        m_val = n_val + 1
        a = m_val + n_val + 2
        for lam in sorted(lambda_set(n_val, a, m_val)):
            q = n_val + 1 - a - lam
            p = SystemParams(F(lam), F(lam + a), n_val, m_val)
            for j in range(n_val + 1):
                for r in range(n_val - j + 1):
                    if q - 2 * n_val + r > 0:
                        assert aux_constants(j, r, p).d_const == 0


def test_gamma_minus_nonzero_on_classified_points():
    for n_val in (1, 2, 3):
        for m_val in (n_val + 1, n_val + 3):
            for a in range(m_val - n_val, m_val + n_val + 3):
                for lam in sorted(lambda_set(n_val, a, m_val)):
                    p = SystemParams(F(lam), F(lam + a), n_val, m_val)
                    assert aux_constants(0, 0, p).gamma_minus != 0


def test_closed_solution_reference_point():
    p = SystemParams(F(-1), F(2), 1, 2)
    sol = closed_solution(p)
    assert sol.g(1).is_zero() and sol.g(2).is_zero()
    assert sol.g(3) == Poly([GaussianRational(F(0), F(2))])
    scalar = proportionality(solve_xi(p).generator, sol)
    assert scalar == GaussianRational(F(0), F(2))


def test_closed_solution_outer_components():
    # g_(m+N) is a multiple of the degree-(a-m-N) substituted polynomial
    p = SystemParams(F(-5), F(0), 2, 3)  # a = 5, m+N = 5: bound 0
    sol = closed_solution(p)
    assert not sol.g(5).is_zero()
    assert sol.g(5).degree == 0
    p2 = SystemParams(F(-7), F(-1), 2, 3)  # a = 6: g_5 in span C~_1(it)
    sol2 = closed_solution(p2)
    ref = gegenbauer_it(1, F(-7) + 1)
    assert proportionality_poly(sol2.g(5), ref)


def proportionality_poly(f, g):
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if f.degree != g.degree:
        return False
    return g * (f.coeffs[-1] / g.coeffs[-1]) == f


def _closed_solution_reference(p):
    """The closed form as Poly sums of substituted Gegenbauer polynomials over Q(i)."""
    n_val, m_val, lam, nu, a = p.N, p.m, p.lam, p.nu, p.a
    sign_nu = sign_pow(int(nu - 1))
    entries = []
    for k in range(m_val - n_val, m_val + n_val + 1):
        d = n_val - m_val + k
        total = Poly()
        if k < m_val:
            for r in range(d + 1):
                term = gegenbauer_it(a - k + 2 * (1 - n_val - int(nu) + r), lam + n_val - 1 - r)
                total = total + (sign_pow(r) * const_a(d, r, p)) * term
            scalar = i_power(k - m_val) * sign_nu
        else:
            for r in range(2 * n_val - d + 1):
                term = gegenbauer_it(a + k - 2 * (m_val + n_val - r), lam + n_val - 1 - r)
                total = total + (sign_pow(r) * const_b(d, r, p)) * term
            scalar = i_power(m_val - k)
        entries.append(scalar * total)
    return SolutionVector(p, entries)


def test_closed_solution_matches_the_poly_sum_reference():
    checked = 0
    for n_val in range(3):
        for m_val in range(n_val + 1, n_val + 4):
            for a in range(m_val - n_val, m_val + n_val + 4):
                for lam in sorted(lambda_set(n_val, a, m_val)):
                    p = SystemParams(F(lam), F(lam + a), n_val, m_val)
                    assert closed_solution(p) == _closed_solution_reference(p), p
                    checked += 1
    assert checked > 100


def test_closed_solution_truncated_range():
    # m-N <= a < m: every g_k with a-k < 0 vanishes identically
    p = SystemParams(F(-3), F(-1), 2, 4)  # a = 2, k runs 2..6
    sol = closed_solution(p)
    for k in range(3, 7):
        assert sol.g(k).is_zero()
    assert not sol.is_zero()


def test_closed_solution_requires_existence():
    with pytest.raises(NoSolutionError):
        closed_solution(SystemParams(F(0), F(3), 1, 2))
    with pytest.raises(UnsupportedRegimeError):
        closed_solution(SystemParams(F(-5), F(0), 2, -3))


def test_closed_solution_spaces_and_equations_sampled():
    for n_val, m_val in ((1, 2), (2, 3), (3, 4)):
        for a in (m_val - n_val, m_val, m_val + n_val, m_val + n_val + 3):
            for lam in sorted(lambda_set(n_val, a, m_val)):
                p = SystemParams(F(lam), F(lam + a), n_val, m_val)
                sol = closed_solution(p)  # constructor checks the parity spaces
                assert not sol.is_zero()
                for kind, sign, j in equation_index(n_val):
                    assert apply_L(kind, sign, j, p, sol.entries).is_zero(), (n_val, m_val, a, lam)
                scalar = proportionality(solve_xi(p).generator, sol)
                assert scalar is not None and bool(scalar)


def test_dual_solution_involution_and_shape():
    rng = random.Random(3)
    for n_val in range(4):
        p = SystemParams(F(-9), F(-2), n_val, n_val + 1)
        comps = []
        for _ in range(2 * n_val + 1):
            comps.append(
                MultiPoly(
                    {
                        (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): GaussianRational(
                            F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
                        )
                    }
                )
            )
        phi = VectorSymbol(tuple(comps))
        assert dual_solution(dual_solution(phi, p), p) == phi


def test_dual_solution_single_component():
    p = SystemParams(F(-3), F(1), 0, 2)
    phi = VectorSymbol((MultiPoly({(1, 1, 0): 1, (0, 2, 1): 2}),))
    out = dual_solution(phi, p)
    assert out.components[0] == MultiPoly({(1, 1, 0): -1, (0, 2, 1): 2})
    with pytest.raises(ValueError):
        dual_solution(phi, SystemParams(F(-3), F(1), 1, 2))


def test_consistency_polynomials_rank_zero():
    for m_val in (1, 2, 5):
        for a in (m_val, m_val + 3):
            six = consistency_polynomials(0, a, m_val)
            expect = Poly([m_val * (a - 1), m_val])  # m(lambda + a - 1)
            assert six.p == expect and six.q == expect
            assert six.alpha_plus == Poly([1]) and six.beta_minus == Poly([1])


def test_p_equals_q_on_the_stable_range():
    for n_val in range(4):
        for m_val in range(n_val + 1, n_val + 4):
            for a in range(m_val + 2 * n_val + 2, m_val + 2 * n_val + 6):
                six = consistency_polynomials(n_val, a, m_val)
                assert six.p == six.q, (n_val, m_val, a)
                assert six.p.degree == 2 * n_val + 1


def test_p_vanishes_on_classified_lambdas():
    n_val, m_val = 2, 3
    a = m_val + 2 * n_val + 2
    six = consistency_polynomials(n_val, a, m_val)
    for q in range(2 * n_val + 1):
        lam = n_val + 1 - a - q
        value = GaussianRational()
        for c in reversed(six.p.coeffs):
            value = value * F(lam) + c
        assert not value


def test_consistency_polynomials_requires_a_ge_m():
    with pytest.raises(ValueError):
        consistency_polynomials(1, 1, 2)


def _recursion_route_vector(p):
    """Third construction of the generator, from the recursion constants.

    The minus-side components are rebuilt from the C^- sums, the plus side
    from the D sums, each with its gamma prefactor and unit overall constant.
    Exact equality with the closed form ties aux_constants to the solution.
    """
    import math

    from breakops.closedform import aux_constants
    from breakops.gegenbauer import gegenbauer_it
    from breakops.poly import Poly
    from breakops.rational import gamma_ratio, i_power
    from breakops.fsystem import SolutionVector

    n_val, m_val, lam, a = p.N, p.m, p.lam, p.a
    q = int(n_val + 1 - a - lam)
    base = lam + (a - m_val - 1) // 2
    components = {}
    for j in range(n_val + 1):
        scale = F(math.factorial(n_val + j), math.factorial(n_val))
        offset = (a - m_val + j - 1) // 2 - (a - m_val - 1) // 2
        total = Poly()
        for r in range(n_val - j + 1):
            total = total + aux_constants(j, r, p).c_minus * gegenbauer_it(
                a - m_val - 2 * n_val + j + 2 * r, lam + n_val - 1 - r
            )
        components[-j] = i_power(j) * (scale * gamma_ratio(base, offset)) * total

        offset2 = offset + q - n_val
        total2 = Poly()
        for r in range(n_val - j + 1):
            total2 = total2 + aux_constants(j, r, p).d_const * gegenbauer_it(
                a - m_val + j + 2 * (q - 2 * n_val + r), lam + n_val - 1 - r
            )
        components[j] = i_power(-j) * (scale * gamma_ratio(base, offset2)) * total2
    entries = [components[m_val - k] for k in range(m_val - n_val, m_val + n_val + 1)]
    return SolutionVector(p, entries)


def test_recursion_route_equals_closed_form():
    checked = 0
    for n_val, m_val in ((1, 2), (2, 3), (3, 4)):
        for a in range(m_val - n_val, m_val + n_val + 4):
            for lam in sorted(lambda_set(n_val, a, m_val)):
                p = SystemParams(F(lam), F(lam + a), n_val, m_val)
                assert _recursion_route_vector(p) == closed_solution(p), (n_val, m_val, a, lam)
                checked += 1
    assert checked > 90
