"""Classification predicate, structure constants, closed-form generator,
duality, and the compatibility polynomials.

The solution space of the system is at most one-dimensional, and dimension
one happens exactly when lambda is an integer with lambda <= 1-|m| and nu is
an integer in [1-N, N+1].  Equivalently, with a = nu - lambda, dimension one
means lambda lies in the finite set

    Lambda(N, a) = {N+1-a-q : max(0, N-a+m) <= q <= 2N}        (m > N),

computed here from this q-indexed form.  At such parameters every solution
in this regime is automatically a differential operator, and each one sits
at an isolated point of the parameter set; the classification record
carries both facts as flags, restated from the paper's theorems and not
checked.

The generator itself is a finite Gegenbauer sum.  With constants

    Gamma(d,r) = C(d,r) * G[lam + [(a-|m|+N-d-1)/2] ; lam + [(a-|m|-1)/2]]
                 * (2N-r+1..)/(N+1..) * (N+|m|+1..)/(N+|m|+1-r..)
    A(d,r) = (-1)^(nu-1) Gamma(d,r)
                 * G[lam + [(-nu-lam-|m|+N-d+1)/2] ; lam + [(a-|m|+N-d-1)/2]]
                 * (N+nu-r)_r
    B(d,r) = (-1)^(d-N) Gamma(2N-d, r) * (N-nu+2-r)_r

(G[u; v] denoting the gamma quotient Gamma(u)/Gamma(v) taken in the rising
factorial limit sense) the components are

    g_k = i^(k-m) (-1)^(nu-1) sum_r (-1)^r A(N-m+k, r)
              * Cg(a-k+2(1-N-nu+r), lam+N-1-r)(it)      k = m-N..m-1,
    g_k = i^(m-k) sum_r (-1)^r B(N-m+k, r)
              * Cg(a+k-2(m+N-r), lam+N-1-r)(it)         k = m..m+N,

where Cg(l, mu) is the renormalized Gegenbauer polynomial, zero for l < 0.
The free overall constant is pinned to 1; against the nullspace generator
only proportionality by a nonzero Gaussian rational is asserted.

For m < -N the generator is not re-derived: the involution Phi, which
reverses the component order with alternating signs and flips the sign of
zeta2, maps the solution symbols for m onto those for -m, and the canonical
emission and the sweep reach negative m through it.  The paper-form
emission instead writes the m < -N formulas out literally
(``operator._emit_literal``); that literal mirror is the independent side
against which the duality is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .fsystem import NoSolutionError, SolutionVector, SystemParams, UnsupportedRegimeError
from .gegenbauer import gegenbauer_coeffs
from .poly import Poly, VectorSymbol
from .rational import (
    GR_ZERO,
    binomial,
    gamma_ratio,
    i_power,
    is_integer,
    pochhammer,
    sign_pow,
)

@dataclass(frozen=True)
class Classification:
    """Outcome of the existence test, with the regime-wide flags."""

    dimension: int
    lambda_admissible: bool
    nu_admissible: bool
    sporadic: bool
    all_sbos_differential: bool

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "lambda_admissible": self.lambda_admissible,
            "nu_admissible": self.nu_admissible,
            "sporadic": self.sporadic,
            "all_sbos_differential": self.all_sbos_differential,
        }


def classify(params: SystemParams) -> Classification:
    """Existence and uniqueness test for the operator at a parameter point.

    The record has already rejected |m| <= N and narrowed lambda and nu.
    ``sporadic`` and ``all_sbos_differential`` restate the paper's theorems
    for this regime; they are not checked here.
    """
    lam, nu, N = params.lam, params.nu, params.N
    lam_ok = is_integer(lam) and lam <= 1 - params.abs_m
    nu_ok = is_integer(nu) and 1 - N <= nu <= N + 1
    dimension = 1 if (lam_ok and nu_ok) else 0
    return Classification(
        dimension=dimension,
        lambda_admissible=lam_ok,
        nu_admissible=nu_ok,
        sporadic=dimension == 1,
        all_sbos_differential=True,
    )


def lambda_set(N: int, a: int, m: int) -> frozenset[int]:
    """The set of integer lambda values where the solution space is a line."""
    if m <= N:
        raise UnsupportedRegimeError("lambda_set is defined in the m > N orientation")
    if a < m - N:
        raise ValueError(f"a = {a} below the admissible minimum {m - N}")
    return frozenset(N + 1 - a - q for q in range(max(0, N - a + m), 2 * N + 1))


class StructureConstants(NamedTuple):
    gamma: Fraction
    a_const: Fraction
    b_const: Fraction


def structure_constants(d: int, r: int, params: SystemParams) -> StructureConstants:
    """The triple (Gamma(d,r), A(d,r), B(d,r)) for the operator formulas.

    The checked entry to the constants; ``const_a`` and ``const_b`` check
    nothing, since their callers loop over valid (d, r) at classified points.
    """
    N = params.N
    if not 0 <= d <= 2 * N:
        raise ValueError(f"component index {d} out of range 0..{2 * N}")
    if not 0 <= r <= min(d, 2 * N - d):
        raise ValueError(f"inner index {r} out of range 0..min({d},{2 * N - d})")
    if not is_integer(params.nu):
        raise ValueError("the constants require an integer nu (the sign (-1)^(nu-1))")
    return StructureConstants(
        _gamma_dr(d, r, params), const_a(d, r, params), const_b(d, r, params)
    )


def const_a(d: int, r: int, params: SystemParams) -> Fraction:
    """A(d, r); may hit a genuine gamma pole away from classified parameters."""
    N, lam, nu = params.N, params.lam, params.nu
    mm = params.abs_m
    a = nu - lam
    base = lam + (a - mm + N - d - 1) // 2
    offset = (-nu - lam - mm + N - d + 1) // 2 - (a - mm + N - d - 1) // 2
    out = sign_pow(nu - 1) * _gamma_dr(d, r, params)
    return out * gamma_ratio(base, offset) * pochhammer(N + nu - r, r)


def const_b(d: int, r: int, params: SystemParams) -> Fraction:
    """B(d, r)."""
    N, nu = params.N, params.nu
    return sign_pow(d - N) * _gamma_dr(2 * N - d, r, params) * pochhammer(N - nu + 2 - r, r)


def _gamma_dr(d: int, r: int, params: SystemParams) -> Fraction:
    N, lam, nu = params.N, params.lam, params.nu
    mm = params.abs_m
    a = nu - lam
    base = lam + (a - mm - 1) // 2
    offset = (a - mm + N - d - 1) // 2 - (a - mm - 1) // 2
    out = binomial(d, r) * gamma_ratio(base, offset)
    out *= pochhammer(N + 1, N - r)  # Gamma(2N-r+1)/Gamma(N+1)
    out *= pochhammer(N + mm + 1 - r, r)  # Gamma(N+|m|+1)/Gamma(N+|m|+1-r)
    return out


class AuxConstants(NamedTuple):
    c_plus: Fraction
    c_minus: Fraction
    d_const: Fraction
    gamma_plus: Fraction
    gamma_minus: Fraction


def aux_constants(j: int, r: int, params: SystemParams) -> AuxConstants:
    """Recursion constants of the solution build-up (m > N orientation)."""
    N, lam, m = params.N, params.lam, params.m
    if m <= N:
        raise UnsupportedRegimeError("auxiliary constants live in the m > N orientation")
    if not 0 <= j <= N:
        raise ValueError(f"index j = {j} out of range 0..{N}")
    if not 0 <= r <= N - j:
        raise ValueError(f"index r = {r} out of range 0..{N - j}")
    a = params.nu - params.lam
    shared = binomial(N - j, r) * pochhammer(N + j + 1, N - j - r)
    c_plus = shared * pochhammer(N - m + 1 - r, r) * pochhammer(lam + a - N - 1, r)
    c_minus = shared * pochhammer(N + m + 1 - r, r) * pochhammer(lam + a - N - 1, r)
    q = N + 1 - a - lam
    d_const = shared * pochhammer(N + m + 1 - r, r) * pochhammer(q - 2 * N, r)
    gammas = []
    for sign in (1, -1):
        base = lam + (a + sign * m + j - 1) // 2
        offset = (a + sign * m + N - 1) // 2 - (a + sign * m + j - 1) // 2
        gammas.append(pochhammer(base, offset))
    return AuxConstants(c_plus, c_minus, d_const, gammas[0], gammas[1])


def closed_solution(params: SystemParams) -> SolutionVector:
    """The literal closed-form generator, overall constant pinned to 1."""
    N, m = params.N, params.m
    if m <= N:
        raise UnsupportedRegimeError("closed form is built in the m > N orientation")
    if classify(params).dimension == 0:
        raise NoSolutionError("solution space is zero at these parameters")
    lam, nu = params.lam, params.nu  # both ints once classified
    a = params.a
    sign_nu = sign_pow(nu - 1)
    entries = []
    for k in range(m - N, m + N + 1):
        d = N - m + k
        if k < m:
            turn, sign = k - m, sign_nu
            terms = [(a - k + 2 * (1 - N - nu + r), r, const_a(d, r, params)) for r in range(d + 1)]
        else:
            turn, sign = m - k, 1
            terms = [(a + k - 2 * (m + N - r), r, const_b(d, r, params)) for r in range(2 * N - d + 1)]
        # sum the real coefficients of the Cg(ell, mu)(z) first, then turn each by i^(turn+deg);
        # a summed degree may exceed a - k before the top terms cancel
        total = [0] * max(ell + 1 for ell, _, _ in terms)
        for ell, r, const in terms:
            scale = sign * sign_pow(r) * const
            for deg, c in enumerate(gegenbauer_coeffs(ell, lam + N - 1 - r)):
                if c:
                    total[deg] += scale * c
        entries.append(Poly([i_power(turn + deg) * c if c else GR_ZERO for deg, c in enumerate(total)]))
    return SolutionVector(params, entries)


def dual_solution(phi: VectorSymbol, params: SystemParams) -> VectorSymbol:
    """The involution Phi: reverse components with alternating signs, flip zeta2."""
    two_n = 2 * params.N
    if len(phi) != two_n + 1:
        raise ValueError(f"expected {two_n + 1} components, got {len(phi)}")
    components = []
    for d in range(two_n + 1):
        image = phi.components[two_n - d].negate_zeta2()
        if d % 2:
            image = -image
        components.append(image)
    return VectorSymbol(tuple(components))


class ConsistencyPolynomials(NamedTuple):
    p: Poly
    q: Poly
    alpha_plus: Poly
    alpha_minus: Poly
    beta_plus: Poly
    beta_minus: Poly


def _poch_poly(shift: Fraction | int, r: int) -> Poly:
    """(lambda + shift)_r as a polynomial in lambda."""
    out = Poly([1])
    for i in range(r):
        out = out * Poly([shift + i, 1])
    return out


def _alpha_beta(N: int, a: int, m: int, even_shift: int) -> Poly:
    """Common builder: even_shift 0 gives alpha, 1 gives beta (for this m)."""
    half = (a + m + 2 * even_shift) // 2
    total = Poly()
    for r in range(N + 1):
        const = binomial(N, r) * pochhammer(N + 1, N - r) * pochhammer(N - m + 1 - r, r)
        const *= pochhammer(half - N + r, N - r)  # Gamma(half)/Gamma(half-N+r)
        term = (sign_pow(r) * const) * _poch_poly(a - N - 1, r)
        total = total + term
    return total


def consistency_polynomials(N: int, a: int, m: int) -> ConsistencyPolynomials:
    """The six lambda-polynomials entering the compatibility determinant."""
    if m <= N:
        raise UnsupportedRegimeError("compatibility analysis lives in the m > N orientation")
    if a < m:
        raise ValueError(f"the polynomials require a >= m, got a = {a}")
    alpha_plus = _alpha_beta(N, a, m, 0)
    alpha_minus = _alpha_beta(N, a, -m, 0)
    beta_plus = _alpha_beta(N, a, m, 1)
    beta_minus = _alpha_beta(N, a, -m, 1)

    def linear(c: int) -> Poly:
        return Poly([c, 1])

    p = linear((a + m - 1) // 2) * ((a + m) // 2)
    p = p * alpha_plus * beta_minus
    p2 = linear((a - m - 1) // 2) * ((a - m) // 2)
    p2 = p2 * alpha_minus * beta_plus
    p = p - p2

    q = Poly([pochhammer(m, N + 1) * pochhammer(1 - m, N)])
    for idx in range(2 * N + 1):
        q = q * linear(a - N - 1 + idx)
    return ConsistencyPolynomials(p, q, alpha_plus, alpha_minus, beta_plus, beta_minus)
