"""Emission of the differential operator along two independent routes.

A ``DiffOperator`` is a finite sum of terms c * dz^p dzbar^q dx3^r acting on
the component addressed by the basis covector u_d; restriction to the plane
x3 = 0 is applied after differentiation and is implicit in the semantics.

Route one ("paper") expands the literal double-sum formulas: each summand is
a scalar Juhl block, the inflated Gegenbauer polynomial evaluated on
(-4 dz dzbar, dx3), composed with an explicit dz^. dzbar^. prefactor and an
exact constant.  Blocks whose Gegenbauer degree would be negative vanish by
the negative-degree convention.

Route two ("canonical") is read off the nullspace generator.  Its symbol
inflates each component, attaches the harmonic factor (zeta1 + i zeta2)^k,
and is pulled back to derivatives by substituting w = zeta1 + i zeta2 and
wbar = zeta1 - i zeta2, under which a monomial w^al wbar^be zeta3^s
corresponds to 2^(al+be) dz^be dzbar^al dx3^s; this is the inverse symbol map
combined with d/dx1 + i d/dx2 = 2 d/dzbar and the Laplacian identity on the
plane.  Each generator coefficient c_s t^s of g_k becomes the symbol term
c_s (w wbar)^u w^k zeta3^s with u = (a-k-s)/2, hence exactly one operator
term, which ``read_off`` writes down without building the symbol.  Negative
m is reached through the duality involution, which on operators swaps dz
and dzbar and reverses the components with alternating signs
(``mirror_operator``).  The symbol route (``symbol_psi``,
``symbol_to_operator`` and ``closedform.dual_solution``) stays as the oracle
the read-off is tested against.

The two routes agree up to a nonzero scalar; the scalar is reported, never
pinned to a closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .closedform import classify, const_a, const_b
from .fsystem import NoSolutionError, SolutionVector, SystemParams, UnsupportedRegimeError, solve_xi
from .gegenbauer import gegenbauer_coeffs
from .poly import MultiPoly, TermMap, VectorSymbol, inflate
from .rational import GaussianRational, binomial, i_power, is_integer, proportional_scalar, sign_pow

TermKey = tuple[int, int, int, int]  # (component d, dz power, dzbar power, dx3 power)


class DiffOperator(TermMap):
    """Finite sum of c * dz^p dzbar^q dx3^r tensored with a basis covector."""

    __slots__ = ()

    def sorted_terms(self) -> list[tuple[TermKey, GaussianRational]]:
        return sorted(self.terms.items())

    def orders(self) -> set[int]:
        """Total derivative orders p+q+r present across all terms."""
        return {p + q + r for (_, p, q, r) in self.terms}

    def to_json(self) -> list:
        return [
            {"d": k[0], "p": k[1], "q": k[2], "r": k[3], "coeff": v.to_json()}
            for k, v in self.sorted_terms()
        ]

    def latex(self) -> str:
        """Rendering in (d, p, q, r) lexicographic term order."""
        if self.is_zero():
            return "0"
        chunks = []
        for (d, p, q, r), coeff in self.sorted_terms():
            factors = [f"\\left({coeff}\\right)"]
            if p:
                factors.append(f"\\partial_z^{{{p}}}" if p > 1 else "\\partial_z")
            if q:
                factors.append(f"\\partial_{{\\bar z}}^{{{q}}}" if q > 1 else "\\partial_{\\bar z}")
            if r:
                factors.append(f"\\partial_{{x_3}}^{{{r}}}" if r > 1 else "\\partial_{x_3}")
            chunks.append(" ".join(factors) + f" \\otimes u_{{{d}}}^{{\\vee}}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"DiffOperator({dict(self.sorted_terms())!r})"


def _juhl_blocks(lam: Fraction | int, nu: Fraction | int) -> dict[tuple[int, int, int], Fraction]:
    """Monomial content (p, q, r) -> coeff of the scalar Juhl block; nu - lambda in N."""
    ell = int(nu - lam)
    source = gegenbauer_coeffs(ell, lam - 1)
    blocks: dict[tuple[int, int, int], Fraction] = {}
    for k in range(ell // 2 + 1):
        if c := source[ell - 2 * k]:
            blocks[(k, k, ell - 2 * k)] = c * (-4) ** k
    return blocks


def juhl_operator(lam: Fraction | int, nu: Fraction | int) -> DiffOperator:
    """The scalar factorization block as a single-component operator.

    The degree-(nu-lambda) Gegenbauer polynomial with parameter lambda-1 is
    inflated to two variables and evaluated at (-4 dz dzbar, dx3).
    """
    lam, nu = Fraction(lam), Fraction(nu)
    order = nu - lam
    if not (is_integer(order) and order >= 0):
        raise ValueError(f"Juhl block needs nu - lambda in N, got {order}")
    blocks = _juhl_blocks(lam, nu)
    return DiffOperator({(0, p, q, r): c for (p, q, r), c in blocks.items()})


def circle_power(k: int) -> MultiPoly:
    """(zeta1 + i zeta2)^k."""
    if k < 0:
        raise ValueError("harmonic factor exponent must be non-negative")
    return MultiPoly({(k - j, j, 0): binomial(k, j) * i_power(j) for j in range(k + 1)})


def symbol_psi(params: SystemParams, sol: SolutionVector) -> VectorSymbol:
    """Attach harmonic factors to the inflated solution components.

    Component d = k - m + N carries inflate(a-k, g_k) * (zeta1 + i zeta2)^k.
    """
    if params.m <= params.N:
        raise UnsupportedRegimeError("symbols are built in the m > N orientation")
    a = params.a
    components = []
    for k in range(params.m - params.N, params.m + params.N + 1):
        g = sol.g(k)
        if g.is_zero():
            components.append(MultiPoly())
            continue
        components.append(inflate(a - k, g) * circle_power(k))
    return VectorSymbol(tuple(components))


def symbol_to_operator(psi: VectorSymbol) -> DiffOperator:
    """Pull a polynomial symbol back to a constant-coefficient operator.

    Each component is rewritten in the basis w = zeta1 + i zeta2,
    wbar = zeta1 - i zeta2; the monomial w^al wbar^be zeta3^s maps to
    2^(al+be) dz^be dzbar^al dx3^s.  Expanding zeta1 = (w+wbar)/2 and
    zeta2 = -i(w-wbar)/2 makes the powers of 2 cancel exactly, leaving
    binomial weights and fourth roots of unity.  The expansion accumulates
    in integers: each component's coefficients are written over the lcm of
    their denominators, and a Fraction is built once per operator term.
    """
    terms: dict[TermKey, GaussianRational] = {}
    for d, component in enumerate(psi.components):
        coeffs = component.terms
        common = lcm(*[part.denominator for c in coeffs.values() for part in (c.re, c.im)])
        sums: dict[TermKey, tuple[int, int]] = {}
        for (e1, e2, e3), coeff in coeffs.items():
            re = coeff.re.numerator * (common // coeff.re.denominator)
            im = coeff.im.numerator * (common // coeff.im.denominator)
            for _ in range(-e2 % 4):  # times i^(-e2), one quarter turn at a time
                re, im = -im, re
            row2 = [sign_pow(e2 - j) * binomial(e2, j) for j in range(e2 + 1)]
            for i in range(e1 + 1):
                weight1 = binomial(e1, i)
                for j, weight2 in enumerate(row2):
                    w = weight1 * weight2
                    key = (d, (e1 - i) + (e2 - j), i + j, e3)
                    sum_re, sum_im = sums.get(key, (0, 0))
                    sums[key] = (sum_re + w * re, sum_im + w * im)
        for key, (re, im) in sums.items():
            if re or im:
                terms[key] = GaussianRational(Fraction(re, common), Fraction(im, common))
    return DiffOperator(terms)


def read_off(params: SystemParams, generator: SolutionVector) -> DiffOperator:
    """The canonical operator of a generator in the m > N orientation, one term per coefficient.

    The coefficient c_s of t^s in g_k becomes c_s 2^(2u+k) dz^u dzbar^(u+k)
    dx3^s on component k - m + N, with u = (a-k-s)/2: the pull-back of its
    symbol term c_s (w wbar)^u w^k zeta3^s.  Equals
    symbol_to_operator(symbol_psi(params, generator)).
    """
    if params.m <= params.N:
        raise UnsupportedRegimeError("operators are read off in the m > N orientation")
    a, k_min = params.a, params.m - params.N
    terms: dict[TermKey, GaussianRational] = {}
    for d, g in enumerate(generator.entries):
        k = k_min + d
        for s, c in enumerate(g.coeffs):
            if c:
                u = (a - k - s) // 2  # a whole u >= 0: the generator lies in its parity spaces
                terms[d, u, u + k, s] = c * (1 << (2 * u + k))
    return DiffOperator(terms)


def mirror_operator(op: DiffOperator, N: int) -> DiffOperator:
    """The duality involution on operators: (d, p, q, r) goes to (2N-d, q, p, r) times (-1)^d.

    On symbols it reverses the components with sign (-1)^d and flips zeta2,
    which swaps w and wbar, so dz and dzbar.  Equals
    symbol_to_operator(dual_solution(psi, params)) for op = symbol_to_operator(psi).
    """
    return DiffOperator({(2 * N - d, q, p, r): -c if d % 2 else c for (d, p, q, r), c in op.terms.items()})


def emit_operator(params: SystemParams, form: str) -> DiffOperator:
    """Emit the operator, either from the literal formulas or read off the generator."""
    if classify(params).dimension == 0:
        raise NoSolutionError("no operator exists at these parameters")
    if form == "paper":
        return _emit_literal(params)
    if form == "canonical":
        return _emit_canonical(params)
    raise ValueError(f"unknown form {form!r}")


def _emit_canonical(params: SystemParams) -> DiffOperator:
    oriented = params if params.m > params.N else params.mirrored()
    result = solve_xi(oriented)
    if result.generator is None:
        raise ArithmeticError("nullspace disagrees with the classification predicate")
    canonical = read_off(oriented, result.generator)
    return canonical if params.m > params.N else mirror_operator(canonical, params.N)


def _emit_literal(params: SystemParams) -> DiffOperator:
    N, m = params.N, params.m
    lam, nu = params.lam, params.nu
    terms: dict[TermKey, Fraction] = {}
    if m > N:
        for d in range(N):
            for r in range(d + 1):
                const = Fraction(2) ** (d + 2 * nu - 2 * r - 2) * const_a(d, r, params)
                _add_literal_term(
                    terms, const, d, lam + N - r, 2 - nu - d - m + r,
                    N + nu - r - 1, m + d + nu - r - 1,
                )
        for d in range(N, 2 * N + 1):
            for r in range(2 * N - d + 1):
                const = Fraction(2) ** (2 * N - d - 2 * r) * const_b(d, r, params)
                _add_literal_term(
                    terms, const, d, lam + N - r, nu + d - m - 2 * N + r,
                    2 * N - d - r, N + m - r,
                )
    else:
        for d in range(N + 1):
            for r in range(d + 1):
                const = Fraction(2) ** (d - 2 * r) * sign_pow(d)
                const *= const_b(2 * N - d, r, params)
                _add_literal_term(
                    terms, const, d, lam + N - r, nu - d + m + r,
                    N - m - r, d - r,
                )
        for d in range(N + 1, 2 * N + 1):
            for r in range(2 * N - d + 1):
                const = Fraction(2) ** (2 * N - d + 2 * nu - 2 * r - 2) * sign_pow(d)
                const *= const_a(2 * N - d, r, params)
                _add_literal_term(
                    terms, const, d, lam + N - r, 2 - nu + d - 2 * N + m + r,
                    -m + 2 * N - d + nu - r - 1, N + nu - r - 1,
                )
    out = DiffOperator(terms)
    if out.is_zero():
        raise ArithmeticError("literal emission produced the zero operator")
    return out


def _add_literal_term(terms: dict[TermKey, Fraction], const: Fraction, d: int, block_lam: Fraction | int,
                      block_nu: int, dz: int, dzbar: int) -> None:
    """Add one summand, constant * Juhl block * dz^dz dzbar^dzbar on component d, into terms."""
    if const == 0 or block_nu - block_lam < 0:
        return  # a negative-degree Gegenbauer block vanishes
    if dz < 0 or dzbar < 0:
        raise ArithmeticError("negative derivative power with a nonzero constant")
    for (p, q, r), c in _juhl_blocks(block_lam, block_nu).items():
        key = (d, p + dz, q + dzbar, r)
        terms[key] = terms.get(key, 0) + const * c


def compare_up_to_scalar(first: DiffOperator, second: DiffOperator) -> GaussianRational | None:
    """The unique scalar c with second = c * first, None when there is none."""
    return proportional_scalar(first.terms, second.terms)
