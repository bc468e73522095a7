"""The coupled second-order system on even-parity polynomial tuples.

For parameters (lambda, nu, N, m) with m > N and a := nu - lambda a natural
number, the unknown is a tuple of polynomials (g_k) indexed by
k = m-N, ..., m+N with g_k constrained to EvenSpace(a-k).  Writing
f_j := g_(m-j) for j = -N..N, the tuple must satisfy the 4N+2 equations

    A_j^+ :  S(a+m-j, lambda+j-1) f_j    - 2(N-j) f_(j+1)'  = 0     j = 0..N
    A_j^- :  S(a-m-j, lambda+j-1) f_(-j) + 2(N-j) f_(-j-1)' = 0     j = 0..N
    B_j^+ :  2(-m(lambda+a-1) + j(lambda-1+theta)) f_j
                 + (N-j) f_(j+1)' + (N+j) f_(j-1)'          = 0     j = 1..N
    B_j^- :  2( m(lambda+a-1) + j(lambda-1+theta)) f_(-j)
                 - (N+j) f_(-j+1)' - (N-j) f_(-j-1)'        = 0     j = 1..N

with S the imaginary Gegenbauer operator and theta the Euler operator.
Expanding every equation into monomial coefficients turns the system into
sparse rational rows acting on the coefficient vector; their nullspace comes
from sparse elimination on integer rows.  The basis returned is the unique
one for the column order (a column is free when it does not lie in the span
of the columns before it; each free column gives the kernel vector that is 1
there and 0 at the other free columns, first nonzero entry scaled to 1), so
it does not depend on the pivot rows and is reproducible byte for byte.

Unknown ordering is fixed as: blocks in ascending k, degrees descending
inside each block.  Row ordering is fixed as: equations A^+ (j ascending),
A^- (j ascending), B^+ (j = 1..N), B^- (j = 1..N); inside one equation the
rows run over monomial degrees 0..the highest degree with a nonzero entry,
with no parity-based pruning.

Each equation sends t^d to at most t^d, t^(d-1) and t^(d-2), so it is written
once as per-degree weights (``equation_weights``), read by ``apply_L``, which
evaluates an equation on any tuple (g_(m-N), ..., g_(m+N)), and by assembly.

The solver is only ever assembled for m > N; negative m is reached through
the component-reversing duality, which acts on symbols and, equivalently, on
the operator read off the generator.  Non-integer rational
lambda is a legitimate input (the solution space is then zero).

Each invariant is checked once, where its value is made: ``SystemParams``
checks the parameters and ``SolutionVector`` the parity spaces, and the code
that receives them does not check again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

from .gegenbauer import gegenbauer_weights
from .poly import EvenSpace, Poly, ZERO_POLY, apply_weights
from .rational import GaussianRational, is_integer, narrow, parse_rational, proportional_scalar


class UnsupportedRegimeError(ValueError):
    """Parameters outside the |m| > N regime handled by this package."""


class NoSolutionError(ValueError):
    """A one-dimensional solution space was requested where none exists."""


@dataclass(frozen=True)
class SystemParams:
    """Validated parameter record (lambda, nu, N, m); rejects |m| <= N.

    (lambda, N) parametrize the source family (a 2N+1-dimensional fiber with
    spectral parameter lambda) and (m, nu) the scalar target family; those
    bundle-level objects are not modelled here, only their parameters.  The
    derived a = nu - lambda is the homogeneity degree of admissible symbols.
    lambda and nu are stored as an int when integral, else as a Fraction.
    """

    lam: Fraction | int
    nu: Fraction | int
    N: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "lam", narrow(Fraction(self.lam)))
        object.__setattr__(self, "nu", narrow(Fraction(self.nu)))
        if self.N < 0:
            raise ValueError("N must be a natural number")
        if abs(self.m) <= self.N:
            raise UnsupportedRegimeError(f"regime |m| <= N unsupported (m={self.m}, N={self.N})")

    @classmethod
    def of(cls, lam, nu, N: int, m: int) -> "SystemParams":
        if isinstance(lam, str):
            lam = parse_rational(lam)
        if isinstance(nu, str):
            nu = parse_rational(nu)
        return cls(lam, nu, int(N), int(m))

    @cached_property
    def a(self) -> int | None:
        """nu - lambda when it is a non-negative integer, else None."""
        diff = self.nu - self.lam
        if is_integer(diff) and diff >= 0:
            return int(diff)
        return None

    @property
    def abs_m(self) -> int:
        return abs(self.m)

    def mirrored(self) -> "SystemParams":
        return SystemParams(self.lam, self.nu, self.N, -self.m)

    def to_json(self) -> dict:
        return {
            "lambda": str(self.lam),
            "nu": str(self.nu),
            "N": self.N,
            "m": self.m,
            "a": self.a,
        }


class SolutionVector:
    """The tuple (g_(m-N), ..., g_(m+N)), each g_k checked to lie in EvenSpace(a-k).

    Every solution vector is validated when it is built, so its readers
    (``read_off``, ``symbol_psi``, the sweep) need not check the parity spaces.
    """

    __slots__ = ("params", "entries")

    def __init__(self, params: SystemParams, entries):
        entries = tuple(entries)
        if len(entries) != 2 * params.N + 1:
            raise ValueError(f"expected {2 * params.N + 1} components, got {len(entries)}")
        a = params.a
        if a is None:
            raise ValueError("solution vectors require nu - lambda to be a natural number")
        for offset, g in enumerate(entries):
            k = params.m - params.N + offset
            if not EvenSpace(a - k).contains(g):
                raise ValueError(f"component g_{k} violates its even-parity space of bound {a - k}")
        self.params = params
        self.entries = entries

    def g(self, k: int) -> Poly:
        """Component of index k; zero outside m-N..m+N."""
        offset = k - (self.params.m - self.params.N)
        if 0 <= offset < len(self.entries):
            return self.entries[offset]
        return ZERO_POLY

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.entries)

    def scaled(self, scalar) -> "SolutionVector":
        return SolutionVector(self.params, tuple(g * scalar for g in self.entries))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SolutionVector)
            and self.params == other.params
            and self.entries == other.entries
        )

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "k_min": self.params.m - self.params.N,
            "components": [g.to_json() for g in self.entries],
        }


def k_support(N: int, m: int) -> tuple[int, ...]:
    """The index set {|m-l|, |m+l| : l = 0..N}; an interval when |m| > N."""
    if N < 0:
        raise ValueError("N must be a natural number")
    values = set()
    for ell in range(N + 1):
        values.add(abs(m - ell))
        values.add(abs(m + ell))
    return tuple(sorted(values))


def hom_dimension(params: SystemParams) -> int:
    """Dimension of the space of admissible tuples (no equations imposed)."""
    a = params.a
    if a is None:
        return 0
    return sum(EvenSpace(a - k).dimension for k in k_support(params.N, params.m))


def _derivative(scale) -> tuple:
    return ((-1, lambda d: scale * d),)  # scale * d/dt


def equation_weights(kind: str, sign: str, j: int, params: SystemParams) -> list[tuple[int, tuple]]:
    """One equation as (index jj, weights) terms, weights acting on f_jj = g_(m-jj).

    The - equations are the + ones with s = -1 folded into the component
    indices, the degree of S, the sign of m and the derivative couplings.
    """
    lam, m, N = params.lam, params.m, params.N
    a = params.a
    if a is None:
        raise ValueError("the equations require nu - lambda to be a natural number")
    s = 1 if sign == "+" else -1
    if kind == "A":
        if not 0 <= j <= N:
            raise ValueError(f"A-type index {j} out of range 0..{N}")
        return [
            (s * j, gegenbauer_weights(a + s * m - j, lam + j - 1, imaginary=True)),
            (s * (j + 1), _derivative(-2 * s * (N - j))),
        ]
    if kind == "B":
        if not 1 <= j <= N:
            raise ValueError(f"B-type index {j} out of range 1..{N}")
        base = 2 * (j * (lam - 1) - s * m * (lam + a - 1))
        return [
            (s * j, ((0, lambda d: base + 2 * j * d),)),
            (s * (j + 1), _derivative(s * (N - j))),
            (s * (j - 1), _derivative(s * (N + j))),
        ]
    raise ValueError(f"unknown equation kind {kind!r}")


def apply_L(kind: str, sign: str, j: int, params: SystemParams, components) -> Poly:
    """Evaluate one of the 4N+2 equation operators on a tuple (g_(m-N), ..., g_(m+N)).

    The tuple need not lie in the parity spaces; f_jj = g_(m-jj) is its
    entry N - jj, and zero for |jj| > N.
    """
    if params.m <= params.N:
        raise UnsupportedRegimeError("equations are assembled in the m > N orientation only")
    N = params.N
    if len(components) != 2 * N + 1:
        raise ValueError(f"expected {2 * N + 1} components, got {len(components)}")
    terms = equation_weights(kind, sign, j, params)
    images = (apply_weights(weights, components[N - jj]) for jj, weights in terms if abs(jj) <= N)
    return sum(images, ZERO_POLY)


def equation_index(N: int) -> list[tuple[str, str, int]]:
    """Fixed enumeration of the 4N+2 equations."""
    index: list[tuple[str, str, int]] = []
    index += [("A", "+", j) for j in range(N + 1)]
    index += [("A", "-", j) for j in range(N + 1)]
    index += [("B", "+", j) for j in range(1, N + 1)]
    index += [("B", "-", j) for j in range(1, N + 1)]
    return index


def unknown_columns(params: SystemParams) -> list[tuple[int, int]]:
    """Fixed (k, degree) enumeration of the monomial unknowns."""
    a = params.a
    if a is None:
        raise ValueError("no unknowns: nu - lambda is not a natural number")
    columns: list[tuple[int, int]] = []
    for k in k_support(params.N, params.m):
        for degree in range(a - k, -1, -2):
            columns.append((k, degree))
    return columns


@dataclass(frozen=True)
class ExactMatrix:
    """Sparse rational matrix: one {column: nonzero int or Fraction} dict per row."""

    cells: tuple[dict[int, Fraction | int], ...]  # an all-zero row is {} and counts in nrows
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.cells)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:  # dense view, for JSON and tests
        return tuple(tuple(Fraction(row.get(c, 0)) for c in range(self.ncols)) for row in self.cells)

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[str(x) for x in row] for row in self.rows],
        }


def assemble_system(params: SystemParams) -> ExactMatrix:
    """Expand all equations into one exact coefficient matrix.

    Columns follow unknown_columns(params); rows follow equation_index with
    one row per monomial degree 0..D of the expanded equation, D being the
    highest degree holding a nonzero entry.  The entry at (row d+shift,
    column (k, d)) is the weight(d) of the equation's term on f_(m-k).
    """
    if params.m <= params.N:
        raise UnsupportedRegimeError("direct assembly requires m > N")
    columns = unknown_columns(params)  # raises unless nu - lambda is a natural number
    cells: list[dict[int, Fraction | int]] = []
    for kind, sign, j in equation_index(params.N):
        by_degree: dict[int, dict[int, Fraction | int]] = {}
        terms = dict(equation_weights(kind, sign, j, params))
        for col, (k, degree) in enumerate(columns):
            for shift, weight in terms.get(params.m - k, ()):
                if w := weight(degree):
                    by_degree.setdefault(degree + shift, {})[col] = w
        cells += [by_degree.get(d, {}) for d in range(max(by_degree, default=-1) + 1)]
    return ExactMatrix(tuple(cells), len(columns))


def nullspace(matrix: ExactMatrix) -> list[tuple[Fraction, ...]]:
    """Rational kernel basis via sparse integer elimination in column order.

    The basis is the unique one for the column order: a column is free when
    it does not lie in the span of the columns before it, and each free
    column contributes the one kernel vector that is 1 there and 0 at the
    other free columns, scaled so its first nonzero entry equals 1.  The
    basis is ordered by ascending free column.  Neither depends on which row
    is picked as a pivot, so the output is reproducible byte for byte.
    """
    ncols = matrix.ncols
    # each row as {column: integer}, a positive multiple of its source row;
    # zero rows are dropped, so a vector is checked against the matrix on these.
    # Elimination builds new rows and never changes these in place.
    integer_rows: list[dict[int, int]] = []
    for cells in matrix.cells:
        if cells:
            scale = lcm(*[x.denominator for x in cells.values()])
            integer_rows.append({c: x.numerator * (scale // x.denominator) for c, x in cells.items()})

    # pending[c]: rows not yet used as a pivot whose first nonzero column is c
    pending: list[list[dict[int, int]]] = [[] for _ in range(ncols)]
    for row in integer_rows:
        pending[min(row)].append(row)
    pivots: list[tuple[dict[int, int], int]] = []  # (row, col) in echelon order
    for col in range(ncols):
        candidates = pending[col]
        if not candidates:
            continue
        pivot = min(candidates, key=len)
        lead = pivot[col]
        for row in candidates:
            if row is pivot:
                continue
            entry = row[col]
            g = gcd(lead, entry)
            r_scale, p_scale = lead // g, entry // g
            combined = {c: r_scale * x for c, x in row.items()}
            for c, x in pivot.items():
                combined[c] = combined.get(c, 0) - p_scale * x
            combined = {c: x for c, x in combined.items() if x}
            if combined:
                content = gcd(*combined.values())
                if content != 1:
                    combined = {c: x // content for c, x in combined.items()}
                pending[min(combined)].append(combined)
        pending[col] = []
        pivots.append((pivot, col))

    pivot_cols = {c for _, c in pivots}
    zero = Fraction(0)
    basis: list[tuple[Fraction, ...]] = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        # back-substitute in integers: vec stays an integer multiple of the kernel vector
        vec = {free: 1}
        for row, c in reversed(pivots):
            if c > free:
                continue
            acc = sum(x * vec[cc] for cc, x in row.items() if cc in vec)
            if not acc:
                continue
            lead = row[c]
            common = gcd(acc, lead)
            if (scale := lead // common) != 1:
                vec = {cc: x * scale for cc, x in vec.items()}
            vec[c] = -acc // common
        if any(sum(x * vec[c] for c, x in row.items() if c in vec) for row in integer_rows):
            raise ArithmeticError("kernel vector fails verification against the matrix")
        first = vec[min(vec)]
        basis.append(tuple(Fraction(vec[c], first) if c in vec else zero for c in range(ncols)))
    return basis


@dataclass(frozen=True)
class XiResult:
    """Dimension of the solution space and, when it is 1, its generator."""

    dimension: int
    generator: SolutionVector | None


def solve_xi(params: SystemParams) -> XiResult:
    """Exact dimension and normalized generator of the solution space."""
    if params.m <= params.N:
        raise UnsupportedRegimeError(
            "solve in the m > N orientation; negative m is reached through the duality"
        )
    if params.a is None:
        return XiResult(0, None)
    matrix = assemble_system(params)
    basis = nullspace(matrix)
    if len(basis) != 1:
        return XiResult(len(basis), None)
    return XiResult(1, decode_vector(params, basis[0]))


def decode_vector(params: SystemParams, vector) -> SolutionVector:
    """Turn a coefficient vector in column order back into polynomials."""
    columns = unknown_columns(params)
    if len(vector) != len(columns):
        raise ValueError("coefficient vector does not match the unknown layout")
    a = params.a
    blocks: dict[int, list] = {}
    for (k, degree), value in zip(columns, vector):
        blocks.setdefault(k, [0] * (a - k + 1))[degree] += value
    entries = []
    for k in range(params.m - params.N, params.m + params.N + 1):
        entries.append(Poly(blocks[k]) if k in blocks else ZERO_POLY)
    return SolutionVector(params, entries)


def proportionality(reference: SolutionVector, other: SolutionVector) -> GaussianRational | None:
    """The scalar c with other = c * reference, when one exists."""
    maps = [{(i, d): c for i, g in enumerate(sol.entries) for d, c in enumerate(g.coeffs)} for sol in (reference, other)]
    return proportional_scalar(*maps)
