"""Exact construction and certification of differential symmetry breaking
operators between principal-series function spaces in the |m| > N regime.

Everything is computed over Q(i): the equation system is solved by
sparse integer elimination, the closed-form generator is assembled from
renormalized Gegenbauer polynomials, and the emitted operator is checked
along two independent routes.
"""

from .rational import (
    GaussianRational,
    PoleError,
    binomial,
    gamma_ratio,
    i_power,
    parse_rational,
    pochhammer,
)
from .poly import EvenSpace, MultiPoly, Poly, VectorSymbol, differentiate, euler_apply, even_basis, inflate
from .gegenbauer import (
    apply_gegenbauer,
    apply_imaginary_gegenbauer,
    gamma_factor,
    gegenbauer,
    gegenbauer_it,
    vanishing_set,
)
from .hypergeom import HyperSpec, hyper
from .fsystem import (
    ExactMatrix,
    NoSolutionError,
    SolutionVector,
    SystemParams,
    UnsupportedRegimeError,
    XiResult,
    apply_L,
    assemble_system,
    hom_dimension,
    k_support,
    nullspace,
    solve_xi,
)
from .closedform import (
    Classification,
    aux_constants,
    classify,
    closed_solution,
    consistency_polynomials,
    dual_solution,
    lambda_set,
    structure_constants,
)
from .operator import (
    DiffOperator,
    compare_up_to_scalar,
    emit_operator,
    juhl_operator,
    mirror_operator,
    read_off,
    symbol_psi,
    symbol_to_operator,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "DiffOperator",
    "EvenSpace",
    "ExactMatrix",
    "GaussianRational",
    "HyperSpec",
    "MultiPoly",
    "NoSolutionError",
    "Poly",
    "PoleError",
    "SolutionVector",
    "SystemParams",
    "UnsupportedRegimeError",
    "VectorSymbol",
    "XiResult",
    "apply_L",
    "apply_gegenbauer",
    "apply_imaginary_gegenbauer",
    "assemble_system",
    "aux_constants",
    "binomial",
    "classify",
    "closed_solution",
    "compare_up_to_scalar",
    "consistency_polynomials",
    "differentiate",
    "dual_solution",
    "emit_operator",
    "euler_apply",
    "even_basis",
    "gamma_factor",
    "gamma_ratio",
    "gegenbauer",
    "gegenbauer_it",
    "hom_dimension",
    "hyper",
    "i_power",
    "inflate",
    "juhl_operator",
    "k_support",
    "lambda_set",
    "mirror_operator",
    "nullspace",
    "parse_rational",
    "pochhammer",
    "read_off",
    "solve_xi",
    "structure_constants",
    "symbol_psi",
    "symbol_to_operator",
    "vanishing_set",
]
