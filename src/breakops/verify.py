"""Executable identity suites backing `verify` and the acceptance tests.

Each suite runs a family of exact identities over parameter grids and
reports (name, cases, failures).  Every check is an exact equality in Q or
Q(i); there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import closedform, fsystem, hypergeom, operator
from .gegenbauer import (
    apply_gegenbauer,
    apply_imaginary_gegenbauer,
    gamma_factor,
    gegenbauer,
    gegenbauer_it,
    vanishing_set,
)
from .poly import (
    EvenSpace,
    MultiPoly,
    Poly,
    VectorSymbol,
    differentiate,
    euler_apply,
    even_basis,
    inflate,
    monomial,
)
from .rational import GR_ZERO, GaussianRational, binomial, gamma_ratio, pochhammer, proportional_scalar, sign_pow


@dataclass
class CheckResult:
    name: str
    cases: int
    failures: int

    def to_json(self) -> dict:
        return {"name": self.name, "cases": self.cases, "failures": self.failures}


def default_mu_values() -> list[Fraction]:
    """Integers in [-8, 4] plus half-integer and third-integer samples."""
    values = [Fraction(k) for k in range(-8, 5)]
    values += [Fraction(n, 2) for n in (-7, -5, -3, -1, 1, 3)]
    values += [Fraction(n, 3) for n in (-7, -2, 1, 5)]
    return values


class _Tally:
    def __init__(self):
        self.results: list[CheckResult] = []

    def run(self, name: str, cases) -> CheckResult:
        total = 0
        bad = 0
        for ok in cases:
            total += 1
            if not ok:
                bad += 1
        result = CheckResult(name, total, bad)
        self.results.append(result)
        return result


def gegenbauer_suite(max_ell: int = 12, mu_values=None, max_d: int = 4) -> list[CheckResult]:
    """The polynomial and operator identities of the Gegenbauer layer."""
    mus = list(mu_values) if mu_values is not None else default_mu_values()
    tally = _Tally()
    pairs = [(ell, mu) for ell in range(max_ell + 1) for mu in mus]

    tally.run(
        "kernel: operator annihilates its polynomial",
        (
            apply_gegenbauer(ell, mu, gegenbauer(ell, mu)).is_zero()
            and apply_imaginary_gegenbauer(ell, mu, gegenbauer_it(ell, mu)).is_zero()
            for ell, mu in pairs
        ),
    )
    two_i = GaussianRational(0, 2)
    tally.run(
        "derivative lowers degree with gamma weight",
        (
            differentiate(gegenbauer_it(ell, mu))
            == (two_i * gamma_factor(mu, ell)) * gegenbauer_it(ell - 1, mu + 1)
            for ell, mu in pairs
        ),
    )
    # The Euler shift carries a factor 2 (provable by matching coefficients;
    # the factor is visibly required already at degree 2).
    tally.run(
        "euler shift drops degree by two",
        (
            euler_apply(gegenbauer_it(ell, mu)) - ell * gegenbauer_it(ell, mu)
            == 2 * gegenbauer_it(ell - 2, mu + 1)
            for ell, mu in pairs
        ),
    )
    tally.run(
        "three-term relation",
        (
            (mu + ell - 1) * gegenbauer_it(ell, mu - 1) + gegenbauer_it(ell - 2, mu)
            == (mu + (ell - 1) // 2) * gegenbauer_it(ell, mu)
            for ell, mu in pairs
        ),
    )

    def ttr_case(ell, mu, d):
        lhs = pochhammer(mu - d + (ell + 1) // 2, d) * gegenbauer_it(ell, mu)
        rhs = Poly()
        for s in range(d + 1):
            weight = binomial(d, s) * pochhammer(mu + ell - d, s)
            rhs = rhs + weight * gegenbauer_it(ell + 2 * (s - d), mu - s)
        return lhs == rhs

    tally.run(
        "descending recursion",
        (ttr_case(ell, mu, d) for ell, mu in pairs for d in range(max_d + 1)),
    )

    def shift_identities(ell, mu, d, s):
        f = monomial(s)
        first = (
            apply_imaginary_gegenbauer(ell, mu, f) - apply_imaginary_gegenbauer(ell, mu + d, f)
            == (2 * d) * (euler_apply(f) - ell * f)
        )
        second = (
            apply_imaginary_gegenbauer(ell, mu, f) - apply_imaginary_gegenbauer(ell - 2 * d, mu + d, f)
            == (2 * d) * (euler_apply(f) + (2 * mu + ell) * f)
        )
        return first and second

    tally.run(
        "operator parameter shifts",
        (
            shift_identities(ell, mu, d, s)
            for ell in range(max_ell + 1)
            for mu in mus[::2]
            for d in range(min(3, max_d) + 1)
            for s in range(13)
        ),
    )
    tally.run(
        "gamma factor product",
        (
            gamma_factor(mu, ell) * gamma_factor(mu, ell + 1) == mu + (ell + 1) // 2
            for mu in mus
            for ell in range(-6, max_ell + 1)
        ),
    )
    tally.run(
        "coefficient vanishing set",
        (
            (not gegenbauer(ell, mu).coefficient(ell - 2 * k)) == (mu in vanishing_set(ell, k))
            for ell in range(max_ell + 1)
            for k in range(ell // 2 + 1)
            for mu in (Fraction(v) for v in range(-10, 4))
        ),
    )

    def koss_case(b, ell):
        x = -b + (2 * b - ell + 1) // 2
        p = (ell + 1) // 2 - (2 * b - ell + 1) // 2
        return gamma_ratio(x, p) * gegenbauer(ell, Fraction(-b)) == gegenbauer(2 * b - ell, Fraction(-b))

    tally.run(
        "degree decay at negative integer parameter",
        (koss_case(b, ell) for b in range(7) for ell in range(2 * b + 1)),
    )

    def unique_kernel(ell, mu):
        basis = even_basis(ell)
        images = [apply_gegenbauer(ell, mu, f) for f in basis]
        cells = tuple({c: x for c, p in enumerate(images) if (x := p.coefficient(d).re)} for d in range(ell + 1))
        kernel = fsystem.nullspace(fsystem.ExactMatrix(cells, len(basis)))
        if len(kernel) != 1:
            return False
        line = {f.degree: c for f, c in zip(basis, kernel[0])}
        return bool(proportional_scalar(line, dict(enumerate(gegenbauer(ell, mu).coeffs))))

    tally.run(
        "even kernel is the single line",
        (unique_kernel(ell, mu) for ell in range(min(max_ell, 8) + 1) for mu in mus[::3]),
    )
    return tally.results


def hypergeom_suite(max_n: int = 8) -> list[CheckResult]:
    """Summation and transformation identities for terminating series.

    The parameter grids mix thirds, halves, and other small rationals away
    from each identity's own pole set.
    """
    tally = _Tally()
    F = Fraction
    a_grid = [F(1, 3), F(-5, 2), F(2), F(7, 3)]
    b_grid = [F(2, 5), F(-7, 5), F(3)]
    c_grid = [F(1, 2), F(9, 4), F(-13, 3), F(22, 7)]

    def chu(n, a, c):
        lhs = hypergeom.hyper(hypergeom.HyperSpec.of((-n, a), (c,), 1))
        return lhs == pochhammer(c - a, n) / pochhammer(c, n)

    tally.run(
        "terminating Gauss point (Chu-Vandermonde)",
        (chu(n, a, c) for n in range(max_n + 1) for a in a_grid for c in c_grid),
    )

    def saalschutz(n, a, b, c):
        lower2 = 1 + a + b - c - n
        if pochhammer(lower2, n) == 0 or pochhammer(c, n) == 0:
            return True  # outside the identity's own pole-free domain
        lhs = hypergeom.hyper(hypergeom.HyperSpec.of((-n, a, b), (c, lower2), 1))
        rhs = (pochhammer(c - a, n) * pochhammer(c - b, n)) / (
            pochhammer(c, n) * pochhammer(c - a - b, n)
        )
        return lhs == rhs

    tally.run(
        "balanced summation (Pfaff-Saalschutz)",
        (
            saalschutz(n, a, b, c)
            for n in range(max_n + 1)
            for a in a_grid[:3]
            for b in b_grid
            for c in c_grid[:3]
        ),
    )

    # Second upper parameter survives unchanged on the right; the series
    # terminates through the 1-n slot.
    def aar_transform(k, n, b, d, e):
        a = F(-k)
        lhs = hypergeom.hyper(hypergeom.HyperSpec.of((a, b, e + n - 1), (d, e), 1))
        prefactor = pochhammer(d - b, k) / pochhammer(d, k)
        rhs = prefactor * hypergeom.hyper(
            hypergeom.HyperSpec.of((a, b, 1 - n), (a + b - d + 1, e), 1)
        )
        return lhs == rhs

    tally.run(
        "terminating transformation",
        (
            aar_transform(k, n, b, d, e)
            for k in range(5)
            for n in range(1, 6)
            for b in (F(1, 3), F(-4, 3))
            for d in (F(1, 2), F(15, 7))
            for e in (F(5, 2), F(-9, 7))
        ),
    )

    def kummer_case(n, b, c, d, e):
        a = F(-n)
        lhs = hypergeom.hyper(hypergeom.HyperSpec.of((a, b, c), (d, e), 1))
        prefactor = pochhammer(d + e - b - c, n) / pochhammer(e, n)
        rhs = prefactor * hypergeom.hyper(
            hypergeom.HyperSpec.of((a, d - b, d - c), (d, d + e - b - c), 1)
        )
        return lhs == rhs

    tally.run(
        "two-row transformation (Kummer)",
        (
            kummer_case(n, b, c, d, e)
            for n in range(max_n + 1)
            for b in (F(1, 3), F(5, 2))
            for c in (F(-2, 3), F(7, 5))
            for d in (F(1, 2), F(13, 7))
            for e in (F(9, 4),)
        ),
    )

    def gauss_terminating(n, b, c):
        lhs = hypergeom.hyper(hypergeom.HyperSpec.of((-n, b), (c,), 1))
        return lhs == gamma_ratio(c - b, n) / gamma_ratio(c, n)

    tally.run(
        "Gauss value via gamma quotients",
        (gauss_terminating(n, b, c) for n in range(max_n + 1) for b in a_grid for c in c_grid),
    )
    return tally.results


def system_suite() -> list[CheckResult]:
    """Scalar, polynomial and solver-level invariants."""
    rng = random.Random(20240801)
    tally = _Tally()
    F = Fraction
    xs = [F(3), F(-2), F(5, 2), F(-7, 3), F(0)]

    tally.run(
        "rising factorial additivity",
        (
            pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)
            for x in xs
            for m in range(11)
            for n in range(11)
        ),
    )

    def ratio_cocycle(x, p, q):
        try:
            left = gamma_ratio(x, p) * gamma_ratio(x + p, q)
            right = gamma_ratio(x, p + q)
        except Exception:
            return True
        return left == right

    def ratio_inverse(x, p):
        try:
            return gamma_ratio(x, p) * gamma_ratio(x + p, -p) == 1
        except Exception:
            return True

    span = range(-5, 6)
    tally.run("gamma quotient cocycle", (ratio_cocycle(x, p, q) for x in xs for p in span for q in span))
    tally.run("gamma quotient inverse", (ratio_inverse(x, p) for x in xs for p in span))

    def random_even(b):
        coeffs = [0] * (b + 1)
        for d in range(b % 2, b + 1, 2):
            coeffs[d] = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
        return Poly(coeffs)

    def inflate_checks(b):
        g1, g2 = random_even(b), random_even(b)
        linear = inflate(b, g1) + inflate(b, g2) == inflate(b, g1 + g2)
        injective = g1.is_zero() or not inflate(b, g1).is_zero()
        homogeneous = g1.is_zero() or inflate(b, g1).homogeneous_degree() == b
        return linear and injective and homogeneous

    tally.run("inflation is linear, injective, homogeneous", (inflate_checks(b) for b in range(9) for _ in range(4)))

    def space_mapping(b):
        g = random_even(b)
        return EvenSpace(b - 1).contains(differentiate(g)) and EvenSpace(b).contains(euler_apply(g))

    tally.run("derivative and Euler respect parity spaces", (space_mapping(b) for b in range(1, 10) for _ in range(4)))

    def random_multi():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            terms[key] = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        return MultiPoly(terms)

    def multi_algebra(_):
        u, v, w = random_multi(), random_multi(), random_multi()
        return u * v == v * u and (u * v) * w == u * (v * w)

    tally.run("three-variable multiplication is commutative/associative", (multi_algebra(i) for i in range(12)))

    def spec_solutions():
        cases = [
            (F(-1), F(2), 1, 2, 1),
            (F(0), F(3), 1, 2, 0),
            (F(1, 2), F(7, 2), 1, 2, 0),
        ]
        for lam, nu, n_val, m_val, expected in cases:
            params = fsystem.SystemParams(lam, nu, n_val, m_val)
            yield fsystem.solve_xi(params).dimension == expected

    tally.run("reference solve points", spec_solutions())

    def hom_matches_columns():
        for n_val in range(3):
            for m_val in range(n_val + 1, n_val + 3):
                for a in range(m_val - n_val, m_val + n_val + 3):
                    params = fsystem.SystemParams(F(-1), F(-1 + a), n_val, m_val)
                    matrix = fsystem.assemble_system(params)
                    yield fsystem.hom_dimension(params) == matrix.ncols

    tally.run("admissible dimension equals column count", hom_matches_columns())
    return tally.results


def operator_suite() -> list[CheckResult]:
    """Dual-path, duality, and reduction checks for emitted operators."""
    rng = random.Random(20240802)
    tally = _Tally()
    F = Fraction

    def random_symbol(n_val):
        comps = []
        for _ in range(2 * n_val + 1):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                key = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
                terms[key] = GaussianRational(rng.randint(-7, 7), rng.randint(-7, 7))
            comps.append(MultiPoly(terms))
        return VectorSymbol(tuple(comps))

    def involution(n_val):
        params = fsystem.SystemParams(F(-5), F(0), n_val, n_val + 2)
        phi = random_symbol(n_val)
        return closedform.dual_solution(closedform.dual_solution(phi, params), params) == phi

    tally.run("duality is an involution", (involution(n_val) for n_val in range(4) for _ in range(8)))

    juhl_cases = [
        (F(-3), F(-3), operator.DiffOperator({(0, 0, 0, 0): 1})),
        (F(-3), F(-2), operator.DiffOperator({(0, 0, 0, 1): 2})),
        (F(-3), F(-1), operator.DiffOperator({(0, 0, 0, 2): 2 * F(-3), (0, 1, 1, 0): 4})),
    ]
    tally.run(
        "scalar block table",
        (operator.juhl_operator(lam, nu) == expected for lam, nu, expected in juhl_cases),
    )

    classified = []
    for n_val in range(3):
        for m_val in (n_val + 1, n_val + 2):
            for a in range(m_val - n_val, m_val + n_val + 3):
                for lam in sorted(closedform.lambda_set(n_val, a, m_val)):
                    classified.append(fsystem.SystemParams(F(lam), F(lam + a), n_val, m_val))
    sample = classified[:: max(1, len(classified) // 18)]

    def dual_paths(params):
        paper = operator.emit_operator(params, "paper")
        canonical = operator.emit_operator(params, "canonical")
        scalar = operator.compare_up_to_scalar(paper, canonical)
        order = params.a
        return scalar is not None and bool(scalar) and paper.orders() == {order}

    tally.run("operator dual-path agreement", (dual_paths(p) for p in sample))
    tally.run(
        "mirrored-operator dual-path agreement",
        (dual_paths(p.mirrored()) for p in sample),
    )

    def legacy_reduction():
        for m_val, a in ((2, 2), (2, 3), (3, 3)):
            for nu in range(0, 3):
                lam = nu - a
                if lam > 1 - m_val or a < m_val:
                    continue
                params = fsystem.SystemParams(F(lam), F(nu), 1, m_val)
                legacy = legacy_order_one_operator(F(lam), F(nu), m_val)
                emitted = operator.emit_operator(params, "paper")
                yield legacy == emitted.scaled(2)

    tally.run("rank-three reduction to the general emission", legacy_reduction())
    return tally.results


def _compose(left: operator.DiffOperator, right: operator.DiffOperator) -> operator.DiffOperator:
    """Product of two single-component operators (constant coefficients commute)."""
    out: dict = {}
    for (d1, p1, q1, r1), u in left.terms.items():
        for (d2, p2, q2, r2), v in right.terms.items():
            if d1 or d2:
                raise ValueError("composition is defined for scalar blocks only")
            key = (0, p1 + p2, q1 + q2, r1 + r2)
            out[key] = out.get(key, GR_ZERO) + u * v
    return operator.DiffOperator(out)


def _attach(op: operator.DiffOperator, d: int) -> operator.DiffOperator:
    return operator.DiffOperator({(d, p, q, r): c for (_, p, q, r), c in op.terms.items()})


def _juhl_or_zero(lam: Fraction, nu: Fraction) -> operator.DiffOperator:
    """Scalar block, extended by the negative-degree-vanishes convention."""
    if nu - lam < 0:
        return operator.DiffOperator()
    return operator.juhl_operator(lam, nu)


def legacy_order_one_operator(lam: Fraction, nu: Fraction, m: int) -> operator.DiffOperator:
    """The three-component operator in its historical form (m > 1, nu-lam >= m).

    Written directly from the older single-strand presentation; used purely
    as an independent oracle against the general emission at N = 1.
    """
    if m <= 1 or nu - lam < m:
        raise ValueError("historical form requires m > 1 and nu - lambda >= m")
    F = Fraction
    dz = operator.DiffOperator({(0, 1, 0, 0): 1})
    dzbar = operator.DiffOperator({(0, 0, 1, 0): 1})
    dx3 = operator.DiffOperator({(0, 0, 0, 1): 1})

    def power(base, k):
        out = operator.DiffOperator({(0, 0, 0, 0): 1})
        for _ in range(k):
            out = _compose(out, base)
        return out

    nu_i = int(nu)
    base = lam + (nu - lam - m - 1) // 2
    offset = (-lam - nu_i - m + 2) // 2 - (nu - lam - m - 1) // 2
    ratio = gamma_ratio(base, offset)
    term0 = _compose(
        _juhl_or_zero(lam + 1, F(2 - nu_i - m)),
        _compose(power(dz, nu_i), power(dzbar, nu_i + m - 1)),
    ).scaled(F(2) ** (2 * nu_i) * sign_pow(nu_i + 1) * ratio)

    gamma_val = gamma_factor(lam - 1, int(nu - lam) - m)
    middle = _juhl_or_zero(lam, nu - m).scaled(m * (1 - nu) - lam + 2)
    middle = middle + _compose(_juhl_or_zero(lam + 1, nu - m), dx3).scaled(-2 * gamma_val)
    term1 = _compose(middle, power(dzbar, m))

    term2 = _compose(_juhl_or_zero(lam + 1, nu - m), power(dzbar, m + 1)).scaled(-4 * gamma_val)
    return _attach(term0, 0) + _attach(term1, 1) + _attach(term2, 2)
