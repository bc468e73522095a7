"""Checks on breakops outputs that recompute the expected answer without breakops.

Each checker returns a list of problems, empty when the output is correct.
The expected values come from the paper's statements written out here: the
existence predicate, the coupled equations of the ``fsystem`` docstring on
``Fraction`` coefficient lists, the shape of the duality involution, and
sympy's Gegenbauer polynomials.  None of them calls into breakops, so a
fault in the program cannot hide by also being in its checker.
"""

from __future__ import annotations

from fractions import Fraction

# The desk grid's lambda padding and extra non-integer lambdas.  The sweep
# command exposes only N, the m span and the a extent, so these are fixed.
LAMBDA_PAD_LOW = 3
LAMBDA_PAD_HIGH = 2
EXTRA_LAMBDAS = (Fraction(1, 2), Fraction(-7, 3))


# --- desk-sweep --------------------------------------------------------------

def predicate(lam: Fraction, nu: Fraction, N: int, m: int) -> int:
    """Dimension of the operator space: 1 iff lambda is an integer <= 1-|m|
    and nu is an integer in [1-N, N+1]."""
    lam_ok = lam.denominator == 1 and lam <= 1 - abs(m)
    nu_ok = nu.denominator == 1 and 1 - N <= nu <= N + 1
    return int(lam_ok and nu_ok)


def desk_grid(max_n: int, m_span: int, a_extra: int) -> list[tuple[int, int, Fraction, Fraction]]:
    """Every (N, m, lambda, nu) the sweep must certify, both signs of m."""
    points = []
    for n_val in range(max_n + 1):
        for m in range(n_val + 1, n_val + m_span + 1):
            for a in range(m - n_val, m + n_val + a_extra + 1):
                low = 1 - n_val - a - LAMBDA_PAD_LOW
                high = n_val + 1 - a + LAMBDA_PAD_HIGH
                lams = [Fraction(v) for v in range(low, high + 1)] + list(EXTRA_LAMBDAS)
                for lam in lams:
                    for sign in (1, -1):
                        points.append((n_val, sign * m, lam, lam + a))
    return points


def check_sweep_document(doc: dict, grid) -> tuple[list[str], int]:
    """Problems with a sweep document, and the number of failed certificates.

    A certificate the program marks as failed is a failed operation, not a
    wrong output; everything else that disagrees with the grid or with the
    predicate is a problem.
    """
    problems = []
    certs = doc.get("certificates", [])
    if len(certs) != len(grid):
        problems.append(f"{len(certs)} certificates for a grid of {len(grid)} points")
    expected = {point: predicate(point[2], point[3], point[0], point[1]) for point in grid}
    seen = set()
    failed = 0
    for cert in certs:
        p = cert["params"]
        key = (p["N"], p["m"], Fraction(p["lambda"]), Fraction(p["nu"]))
        if key in seen:
            problems.append(f"duplicate certificate {key}")
        seen.add(key)
        if key not in expected:
            problems.append(f"certificate {key} is outside the grid")
            continue
        if cert["xi_dimension"] != expected[key]:
            problems.append(f"xi_dimension {cert['xi_dimension']} at {key}, predicate says {expected[key]}")
        if not cert["pass"] or cert["failures"]:
            failed += 1
    missing = len(set(expected) - seen)
    if missing:
        problems.append(f"{missing} grid points have no certificate")
    summary = doc.get("summary", {})
    if summary.get("checked") != len(certs) or summary.get("failures") != failed:
        problems.append(f"summary {summary} disagrees with the certificates")
    return problems, failed


# --- deep-points -------------------------------------------------------------

def _deriv(c: list) -> list:
    return [d * c[d] for d in range(1, len(c))]


def _at(c: list, d: int) -> Fraction:
    return c[d] if 0 <= d < len(c) else Fraction(0)


def _combine(size: int, *terms) -> list:
    """sum of scalar * coefficient list, as a list of the given length."""
    return [sum((s * _at(c, d) for s, c in terms), Fraction(0)) for d in range(size)]


def _imaginary_gegenbauer(ell, mu, c: list) -> list:
    """S f = -((1+t^2) f'' + (1+2mu) t f' - l(l+2mu) f), coefficientwise."""
    return [
        -((d + 2) * (d + 1) * _at(c, d + 2) + (d * (d - 1) + (1 + 2 * mu) * d - ell * (ell + 2 * mu)) * _at(c, d))
        for d in range(len(c))
    ]


def equation_residuals(N: int, m: int, lam: Fraction, a: int, components: list) -> list[str]:
    """Labels of the 4N+2 equations the tuple (g_(m-N), ..., g_(m+N)) violates.

    ``components`` holds one ``Fraction`` coefficient list per g_k, lowest
    degree first.  With f_j = g_(m-j):

        A_j^+ : S(a+m-j, lam+j-1) f_j    - 2(N-j) f_(j+1)'                j = 0..N
        A_j^- : S(a-m-j, lam+j-1) f_(-j) + 2(N-j) f_(-j-1)'               j = 0..N
        B_j^+ : 2(-m(lam+a-1) + j(lam-1+theta)) f_j
                    + (N-j) f_(j+1)' + (N+j) f_(j-1)'                     j = 1..N
        B_j^- : 2( m(lam+a-1) + j(lam-1+theta)) f_(-j)
                    - (N+j) f_(-j+1)' - (N-j) f_(-j-1)'                   j = 1..N
    """
    size = max((len(c) for c in components), default=0)

    def f(j):
        offset = N - j  # g_(m-j) sits at index (m-j) - (m-N)
        return list(components[offset]) if 0 <= offset <= 2 * N else []

    def theta(c):
        return [d * c[d] for d in range(len(c))]

    bad = []
    for j in range(N + 1):
        plus = _combine(size, (1, _imaginary_gegenbauer(a + m - j, lam + j - 1, f(j))),
                        (-2 * (N - j), _deriv(f(j + 1))))
        minus = _combine(size, (1, _imaginary_gegenbauer(a - m - j, lam + j - 1, f(-j))),
                         (2 * (N - j), _deriv(f(-j - 1))))
        if any(plus):
            bad.append(f"A{j}+")
        if any(minus):
            bad.append(f"A{j}-")
    for j in range(1, N + 1):
        plus = _combine(size, (2 * (-m * (lam + a - 1) + j * (lam - 1)), f(j)), (2 * j, theta(f(j))),
                        (N - j, _deriv(f(j + 1))), (N + j, _deriv(f(j - 1))))
        minus = _combine(size, (2 * (m * (lam + a - 1) + j * (lam - 1)), f(-j)), (2 * j, theta(f(-j))),
                         (-(N + j), _deriv(f(-j + 1))), (-(N - j), _deriv(f(-j - 1))))
        if any(plus):
            bad.append(f"B{j}+")
        if any(minus):
            bad.append(f"B{j}-")
    return bad


def check_generator(N: int, m: int, lam: Fraction, a: int, components: list) -> list[str]:
    """The generator is nonzero, respects its parity spaces, solves every equation."""
    problems = []
    if not any(any(c) for c in components):
        problems.append("generator is zero")
    for offset, coeffs in enumerate(components):
        k = m - N + offset
        for d, value in enumerate(coeffs):
            if value and (d > a - k or (a - k - d) % 2):
                problems.append(f"g_{k} has a t^{d} term outside its parity space")
    bad = equation_residuals(N, m, lam, a, components)
    if bad:
        problems.append("generator violates equations " + ",".join(bad))
    return problems


def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def proportional(first: dict, second: dict) -> bool:
    """second = c * first for a nonzero Gaussian rational c; values are (re, im)."""
    if not first or first.keys() != second.keys():
        return False
    key = min(first)
    u0, v0 = first[key], second[key]
    if v0 == (0, 0):
        return False
    return all(_cmul(second[k], u0) == _cmul(first[k], v0) for k in first)


def check_operators(paper: dict, canonical: dict, a: int) -> list[str]:
    """Both emissions nonzero, homogeneous of total order a, proportional.

    Keys are (d, p, q, r) for c * dz^p dzbar^q dx3^r on component d.
    """
    problems = []
    for name, terms in (("paper", paper), ("canonical", canonical)):
        if not terms:
            problems.append(f"{name} emission is zero")
        orders = {p + q + r for (_, p, q, r) in terms}
        if terms and orders != {a}:
            problems.append(f"{name} emission has total orders {sorted(orders)}, expected {a}")
    if paper and canonical and not proportional(paper, canonical):
        problems.append("emissions are not proportional by a nonzero scalar")
    return problems


def expected_dual(components: list) -> list:
    """Phi: reverse the components, negate odd ones, substitute zeta2 -> -zeta2."""
    two_n = len(components) - 1
    out = []
    for d in range(two_n + 1):
        sign = -1 if d % 2 else 1
        out.append({
            key: (sign * (-1) ** key[1] * re, sign * (-1) ** key[1] * im)
            for key, (re, im) in components[two_n - d].items()
        })
    return out


def check_dual(psi: list, flipped: list, twice: list) -> list[str]:
    problems = []
    if flipped != expected_dual(psi):
        problems.append("dual symbol differs from the reversed, zeta2-flipped components")
    if twice != psi:
        problems.append("dual applied twice is not the identity")
    return problems


# --- identity-suites ---------------------------------------------------------

def gegenbauer_case_counts(max_ell: int, n_mus: int, max_d: int) -> dict[str, int]:
    """Cases per check of the Gegenbauer suite, from the sizes of its grids."""
    pairs = (max_ell + 1) * n_mus
    every_second = (n_mus + 1) // 2
    every_third = (n_mus + 2) // 3
    return {
        "kernel: operator annihilates its polynomial": pairs,
        "derivative lowers degree with gamma weight": pairs,
        "euler shift drops degree by two": pairs,
        "three-term relation": pairs,
        "descending recursion": pairs * (max_d + 1),
        "operator parameter shifts": (max_ell + 1) * every_second * (min(3, max_d) + 1) * 13,
        "gamma factor product": n_mus * (max_ell + 7),
        "coefficient vanishing set": sum(ell // 2 + 1 for ell in range(max_ell + 1)) * 14,
        "degree decay at negative integer parameter": sum(2 * b + 1 for b in range(7)),
        "even kernel is the single line": (min(max_ell, 8) + 1) * every_third,
    }


def hypergeom_case_counts(max_n: int) -> dict[str, int]:
    """Cases per check of the hypergeometric suite with its default grids."""
    n = max_n + 1
    return {
        "terminating Gauss point (Chu-Vandermonde)": n * 4 * 4,
        "balanced summation (Pfaff-Saalschutz)": n * 3 * 3 * 3,
        "terminating transformation": 5 * 5 * 2 * 2 * 2,
        "two-row transformation (Kummer)": n * 2 * 2 * 2,
        "Gauss value via gamma quotients": n * 4 * 4,
    }


def check_suite_results(results, expected: dict[str, int]) -> tuple[list[str], int]:
    """Problems with (name, cases, failures) triples, and the failed-case count."""
    problems = []
    got = {name: cases for name, cases, _ in results}
    if list(got) != list(expected):
        problems.append(f"checks {list(got)} differ from {list(expected)}")
    for name, cases in expected.items():
        if name in got and got[name] != cases:
            problems.append(f"{name}: {got[name]} cases, grid gives {cases}")
    return problems, sum(failures for _, _, failures in results)


def sympy_gegenbauer(ell: int, mu: Fraction) -> list[Fraction]:
    """Coefficients of sympy's C_l^mu(z) * Gamma(mu)/Gamma(mu + [(l+1)/2])."""
    import sympy

    x, z = sympy.Symbol("x"), sympy.Symbol("z")
    mu_s = sympy.Rational(mu.numerator, mu.denominator)
    ratio = sympy.gammasimp(sympy.gamma(x) / sympy.gamma(x + (ell + 1) // 2)).subs(x, mu_s)
    expr = sympy.expand(sympy.gegenbauer(ell, mu_s, z) * ratio)
    coeffs = sympy.Poly(expr, z).all_coeffs()[::-1]
    out = []
    for c in coeffs:
        if not c.is_Rational:
            raise ArithmeticError(f"sympy gave a non-rational coefficient {c}")
        out.append(Fraction(int(c.p), int(c.q)))
    while out and not out[-1]:
        out.pop()
    return out


def check_gegenbauer_coefficients(table: dict) -> list[str]:
    """``table`` maps (ell, mu) to breakops' coefficient list, lowest degree first."""
    problems = []
    for (ell, mu), coeffs in table.items():
        if mu.denominator == 1 and mu <= 0:
            continue  # Gamma(mu) has a pole: the renormalization is a limit there
        expected = sympy_gegenbauer(ell, mu)
        if list(coeffs) != expected:
            problems.append(f"gegenbauer({ell}, {mu}) = {coeffs}, sympy gives {expected}")
    return problems
