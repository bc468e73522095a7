"""Operator emission: scalar blocks, symbol route, literal route, duality."""

from fractions import Fraction as F

import pytest

from breakops import closedform, operator
from breakops.closedform import const_a, const_b, dual_solution, lambda_set
from breakops.fsystem import NoSolutionError, SolutionVector, SystemParams, UnsupportedRegimeError, solve_xi
from breakops.operator import (
    DiffOperator,
    circle_power,
    compare_up_to_scalar,
    emit_operator,
    juhl_operator,
    mirror_operator,
    read_off,
    symbol_psi,
    symbol_to_operator,
)
from breakops.gegenbauer import gegenbauer
from breakops.poly import MultiPoly, Poly, VectorSymbol
from breakops.rational import GR_ZERO, GaussianRational, binomial, i_power, sign_pow
from breakops.sweep import SweepConfig, run_sweep
from breakops.verify import legacy_order_one_operator


def test_juhl_low_orders():
    lam = F(-3)
    assert juhl_operator(lam, lam) == DiffOperator({(0, 0, 0, 0): 1})
    assert juhl_operator(lam, lam + 1) == DiffOperator({(0, 0, 0, 1): 2})
    # degree 2: 2*lam*dx3^2 + 4 dz dzbar, from 2*lam*y^2 - x at x = -4 dz dzbar
    assert juhl_operator(lam, lam + 2) == DiffOperator({(0, 0, 0, 2): 2 * lam, (0, 1, 1, 0): 4})


def test_juhl_requires_natural_order():
    with pytest.raises(ValueError):
        juhl_operator(F(0), F(-1))
    with pytest.raises(ValueError):
        juhl_operator(F(0), F(1, 2))


def test_circle_power():
    i = GaussianRational(F(0), F(1))
    assert circle_power(0) == MultiPoly.term(0, 0, 0)
    assert circle_power(1) == MultiPoly({(1, 0, 0): 1, (0, 1, 0): i})
    # (z1 + i z2)^2 = z1^2 + 2i z1 z2 - z2^2
    assert circle_power(2) == MultiPoly({(2, 0, 0): 1, (1, 1, 0): 2 * i, (0, 2, 0): -1})
    assert circle_power(1).negate_zeta2() == MultiPoly({(1, 0, 0): 1, (0, 1, 0): -i})


def test_symbol_to_operator_generators():
    # the three stated monomial rules
    assert symbol_to_operator(VectorSymbol((MultiPoly.term(0, 0, 0),))) == DiffOperator(
        {(0, 0, 0, 0): 1}
    )
    assert symbol_to_operator(VectorSymbol((MultiPoly.term(0, 0, 2),))) == DiffOperator(
        {(0, 0, 0, 2): 1}
    )
    radial = MultiPoly({(2, 0, 0): 1, (0, 2, 0): 1})  # z1^2 + z2^2
    assert symbol_to_operator(VectorSymbol((radial * circle_power(1),))) == DiffOperator(
        {(0, 1, 2, 0): 8}
    )
    assert symbol_to_operator(VectorSymbol((circle_power(3),))) == DiffOperator({(0, 0, 3, 0): 8})
    assert symbol_to_operator(VectorSymbol((circle_power(3).negate_zeta2(),))) == DiffOperator(
        {(0, 3, 0, 0): 8}
    )


def test_symbol_psi_structure():
    p = SystemParams(F(-1), F(2), 1, 2)
    gen = solve_xi(p).generator
    psi = symbol_psi(p, gen)
    assert len(psi) == 3
    assert psi.components[0].is_zero() and psi.components[1].is_zero()
    assert psi.components[2] == circle_power(3)  # inflate(0, 1) * (z1+i z2)^3
    for comp in psi.components:
        assert comp.is_zero() or comp.homogeneous_degree() == p.a


def test_symbol_psi_homogeneity_general():
    p = SystemParams(F(-4), F(1), 2, 3)
    gen = solve_xi(p).generator
    psi = symbol_psi(p, gen)
    degrees = {c.homogeneous_degree() for c in psi.components if not c.is_zero()}
    assert degrees == {p.a}


def test_emit_rank_one_reference():
    p = SystemParams(F(-1), F(2), 1, 2)
    paper = emit_operator(p, "paper")
    canonical = emit_operator(p, "canonical")
    assert paper == DiffOperator({(2, 0, 3, 0): -2})
    assert canonical == DiffOperator({(2, 0, 3, 0): 8})
    assert compare_up_to_scalar(paper, canonical) == GaussianRational(F(-4))


def test_emit_rank_zero_single_block():
    p = SystemParams(F(-1), F(1), 0, 2)
    emitted = emit_operator(p, "paper")
    assert emitted == DiffOperator({(0, 0, 2, 0): 1})  # B(0,0) = 1 on dzbar^m


def test_emit_requires_existence():
    with pytest.raises(NoSolutionError):
        emit_operator(SystemParams(F(0), F(3), 1, 2), "paper")
    with pytest.raises(ValueError):
        emit_operator(SystemParams(F(-1), F(2), 1, 2), "exotic")


def test_emit_total_order():
    for n_val, m_val, a in ((1, 2, 4), (2, 3, 6), (2, 4, 5)):
        for lam in sorted(lambda_set(n_val, a, m_val)):
            p = SystemParams(F(lam), F(lam + a), n_val, m_val)
            assert emit_operator(p, "paper").orders() == {a}


def test_emit_routes_proportional():
    for n_val, m_val, a in ((0, 1, 3), (1, 2, 3), (1, 3, 5), (2, 3, 4)):
        for lam in sorted(lambda_set(n_val, a, m_val)):
            p = SystemParams(F(lam), F(lam + a), n_val, m_val)
            scalar = compare_up_to_scalar(emit_operator(p, "paper"), emit_operator(p, "canonical"))
            assert scalar is not None and bool(scalar), (n_val, m_val, a, lam)


def test_emit_negative_m_via_duality():
    for n_val, m_val, a in ((1, 2, 3), (2, 3, 5)):
        for lam in sorted(lambda_set(n_val, a, m_val)):
            pos = SystemParams(F(lam), F(lam + a), n_val, m_val)
            neg = pos.mirrored()
            paper = emit_operator(neg, "paper")
            mirrored_psi = dual_solution(symbol_psi(pos, solve_xi(pos).generator), pos)
            canonical = symbol_to_operator(mirrored_psi)
            scalar = compare_up_to_scalar(paper, canonical)
            assert scalar is not None and bool(scalar)
            assert paper.orders() == {a}
            assert emit_operator(neg, "canonical") == canonical


def _classified_points(max_n, m_span, a_extra):
    """Every positive-m point with N <= max_n, m - N <= m_span, a <= m + N + a_extra whose space is a line."""
    for n_val in range(max_n + 1):
        for m_val in range(n_val + 1, n_val + m_span + 1):
            for a in range(m_val - n_val, m_val + n_val + a_extra + 1):
                for lam in sorted(lambda_set(n_val, a, m_val)):
                    yield SystemParams(F(lam), F(lam + a), n_val, m_val)


def test_read_off_and_mirror_match_the_symbol_route():
    checked = 0
    for p in _classified_points(2, 3, 3):
        generator = solve_xi(p).generator
        psi = symbol_psi(p, generator)
        canonical = read_off(p, generator)
        assert canonical == symbol_to_operator(psi), p
        assert mirror_operator(canonical, p.N) == symbol_to_operator(dual_solution(psi, p)), p
        checked += 1
    assert checked > 100


def _symbol_to_operator_reference(psi):
    """The pull-back summed one GaussianRational binomial term at a time."""
    terms = {}
    for d, component in enumerate(psi.components):
        for (e1, e2, e3), coeff in component.terms.items():
            base = coeff * i_power(-e2)
            for i in range(e1 + 1):
                for j in range(e2 + 1):
                    key = (d, (e1 - i) + (e2 - j), i + j, e3)
                    value = base * (sign_pow(e2 - j) * binomial(e1, i) * binomial(e2, j))
                    terms[key] = terms.get(key, GR_ZERO) + value
    return DiffOperator(terms)


def test_symbol_to_operator_matches_the_term_by_term_reference():
    checked = 0
    for p in _classified_points(2, 3, 3):
        psi = symbol_psi(p, solve_xi(p).generator)
        for symbol in (psi, dual_solution(psi, p)):
            # the term order too: compare_up_to_scalar divides at the first term
            assert list(symbol_to_operator(symbol).terms.items()) == list(
                _symbol_to_operator_reference(symbol).terms.items()
            ), p
            checked += 1
    assert checked > 200


def _literal_term_reference(const, d, block_lam, block_nu, dz, dzbar):
    """One summand of the paper form as its own operator, its Juhl block read off gegenbauer()."""
    if const == 0 or block_nu - block_lam < 0:
        return DiffOperator()
    assert dz >= 0 and dzbar >= 0
    ell = int(block_nu - block_lam)
    source = gegenbauer(ell, block_lam - 1)
    return DiffOperator({
        (d, k + dz, k + dzbar, ell - 2 * k): const * source.coefficient(ell - 2 * k).re * F(-4) ** k
        for k in range(ell // 2 + 1)
    })


def _emit_literal_reference(p):
    """The paper form as a running DiffOperator sum of one operator per summand, all in Fractions."""
    n_val, m_val, lam, nu = p.N, p.m, p.lam, int(p.nu)
    out = DiffOperator()
    if m_val > n_val:
        for d in range(n_val):
            for r in range(d + 1):
                const = F(2) ** (d + 2 * nu - 2 * r - 2) * const_a(d, r, p)
                out = out + _literal_term_reference(
                    const, d, lam + n_val - r, F(2 - nu - d - m_val + r), n_val + nu - r - 1, m_val + d + nu - r - 1)
        for d in range(n_val, 2 * n_val + 1):
            for r in range(2 * n_val - d + 1):
                const = F(2) ** (2 * n_val - d - 2 * r) * const_b(d, r, p)
                out = out + _literal_term_reference(
                    const, d, lam + n_val - r, F(nu + d - m_val - 2 * n_val + r), 2 * n_val - d - r, n_val + m_val - r)
    else:
        for d in range(n_val + 1):
            for r in range(d + 1):
                const = F(2) ** (d - 2 * r) * sign_pow(d) * const_b(2 * n_val - d, r, p)
                out = out + _literal_term_reference(
                    const, d, lam + n_val - r, F(nu - d + m_val + r), n_val - m_val - r, d - r)
        for d in range(n_val + 1, 2 * n_val + 1):
            for r in range(2 * n_val - d + 1):
                const = F(2) ** (2 * n_val - d + 2 * nu - 2 * r - 2) * sign_pow(d) * const_a(2 * n_val - d, r, p)
                out = out + _literal_term_reference(
                    const, d, lam + n_val - r, F(2 - nu + d - 2 * n_val + m_val + r),
                    -m_val + 2 * n_val - d + nu - r - 1, n_val + nu - r - 1)
    return out


def test_paper_emission_matches_the_per_summand_reference():
    checked = 0
    for p in _classified_points(2, 3, 3):
        for q in (p, p.mirrored()):
            emitted = emit_operator(q, "paper")
            assert not emitted.is_zero() and emitted == _emit_literal_reference(q), q
            checked += 1
    assert checked > 200


def test_read_off_rejects_the_mirrored_orientation_and_odd_parity():
    p = SystemParams(F(-1), F(2), 1, 2)
    generator = solve_xi(p).generator
    with pytest.raises(UnsupportedRegimeError):
        read_off(p.mirrored(), generator)
    probe = SolutionVector(p, (Poly(), Poly([0, 1]), Poly()))  # t spans EvenSpace(a - 2)
    assert read_off(p, probe) == DiffOperator({(1, 0, 2, 1): 4})
    with pytest.raises(ValueError):  # the constant 1 does not lie in EvenSpace(1)
        SolutionVector(p, (Poly(), Poly([1]), Poly()))


def test_mirror_operator_is_an_involution():
    op = DiffOperator({(0, 1, 2, 0): 3, (1, 0, 0, 4): F(1, 2), (2, 2, 0, 1): GaussianRational(F(1), F(-1))})
    flipped = mirror_operator(op, 1)
    assert flipped == DiffOperator(
        {(2, 2, 1, 0): 3, (1, 0, 0, 4): F(-1, 2), (0, 0, 2, 1): GaussianRational(F(1), F(-1))}
    )
    assert mirror_operator(flipped, 1) == op


def test_sweep_does_not_call_the_symbol_route(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the symbol route ran inside the sweep")

    monkeypatch.setattr(operator, "symbol_psi", fail)
    monkeypatch.setattr(operator, "symbol_to_operator", fail)
    monkeypatch.setattr(closedform, "dual_solution", fail)
    _, summary = run_sweep(SweepConfig(max_n=1, m_span=1, a_extra=0))
    assert summary["dim1"] > 0 and summary["failures"] == 0


def test_compare_up_to_scalar_conventions():
    base = DiffOperator({(0, 1, 0, 0): 1, (1, 0, 0, 2): F(1, 3)})
    assert compare_up_to_scalar(base, base) == GaussianRational(F(1))
    assert compare_up_to_scalar(base, base.scaled(2)) == GaussianRational(F(2))
    assert compare_up_to_scalar(base, DiffOperator()) == GaussianRational()
    assert compare_up_to_scalar(DiffOperator(), base) is None
    other = DiffOperator({(0, 1, 0, 0): 1})
    assert compare_up_to_scalar(base, other) is None


def test_legacy_rank_three_relation():
    # the historical operator equals exactly twice the general emission
    checked = 0
    for m_val, a in ((2, 2), (2, 3), (3, 3)):
        for nu in range(0, 3):
            lam = nu - a
            if lam > 1 - m_val or a < m_val:
                continue
            p = SystemParams(F(lam), F(nu), 1, m_val)
            assert legacy_order_one_operator(F(lam), F(nu), m_val) == emit_operator(
                p, "paper"
            ).scaled(2)
            checked += 1
    assert checked >= 5


def test_operator_json_and_latex_order():
    p = SystemParams(F(-2), F(1), 1, 2)
    emitted = emit_operator(p, "paper")
    doc = emitted.to_json()
    keys = [(t["d"], t["p"], t["q"], t["r"]) for t in doc]
    assert keys == sorted(keys)
    rendered = emitted.latex()
    assert "\\otimes u_" in rendered
