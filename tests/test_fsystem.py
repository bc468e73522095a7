"""The coupled system: assembly, exact nullspace, and the spectral dimension."""

from fractions import Fraction as F
from math import lcm

import pytest

from breakops.closedform import lambda_set
from breakops.fsystem import (
    ExactMatrix,
    SolutionVector,
    SystemParams,
    UnsupportedRegimeError,
    apply_L,
    assemble_system,
    equation_index,
    hom_dimension,
    k_support,
    nullspace,
    proportionality,
    solve_xi,
    unknown_columns,
)
from breakops.poly import Poly, ZERO_POLY, monomial
from breakops.sweep import SweepConfig, build_tasks


def dense_matrix(rows, ncols):
    """An ExactMatrix from dense rows, their zero entries dropped."""
    return ExactMatrix(tuple({c: x for c, x in enumerate(row) if x} for row in rows), ncols)


def test_params_reject_small_m():
    with pytest.raises(UnsupportedRegimeError):
        SystemParams(F(0), F(0), 2, 1)
    with pytest.raises(UnsupportedRegimeError):
        SystemParams(F(0), F(0), 1, -1)
    assert SystemParams(F(0), F(0), 1, -2).abs_m == 2


def test_derived_a():
    assert SystemParams(F(-1), F(2), 1, 2).a == 3
    assert SystemParams(F(1, 2), F(7, 2), 1, 2).a == 3
    assert SystemParams(F(0), F(1, 2), 1, 2).a is None
    assert SystemParams(F(2), F(0), 1, 2).a is None  # negative difference
    # lambda and nu are stored narrowed: int when integral, Fraction otherwise
    integral = SystemParams(F(-1), F(2), 1, 2)
    assert type(integral.lam) is int and type(integral.nu) is int
    half = SystemParams(F(1, 2), F(7, 2), 1, 2)
    assert type(half.lam) is F and type(half.nu) is F
    same = [SystemParams(-1, 2, 1, 2), integral, SystemParams.of("-1", "2", 1, 2)]
    assert all(p == integral and hash(p) == hash(integral) for p in same)
    assert type(integral.mirrored().lam) is int and type(integral.mirrored().nu) is int
    assert type(half.mirrored().lam) is F and type(half.mirrored().nu) is F


def test_k_support():
    assert k_support(1, 2) == (1, 2, 3)
    assert k_support(0, 5) == (5,)
    assert k_support(2, 3) == (1, 2, 3, 4, 5)
    assert k_support(1, -2) == (1, 2, 3)


def test_hom_dimension():
    assert hom_dimension(SystemParams(F(-1), F(2), 1, 2)) == 4  # dims 2+1+1 over k=1,2,3
    assert hom_dimension(SystemParams(F(0), F(1), 1, 2)) == 1
    assert hom_dimension(SystemParams(F(0), F(1, 2), 1, 2)) == 0
    assert hom_dimension(SystemParams(F(0), F(0), 1, 2)) == 0  # a=0 < min K = 1


def test_apply_L_on_probe_vector():
    # S_5^{-2}(1) - 2 d/dt(t) = 5 - 2 = 3 on the raw probe (f0=1, f1=t)
    p = SystemParams(F(-1), F(2), 1, 2)
    probe = (monomial(1), Poly([1]), ZERO_POLY)  # g_2 = 1 lies outside EvenSpace(1)
    assert apply_L("A", "+", 0, p, probe) == Poly([3])
    with pytest.raises(ValueError):
        apply_L("A", "+", 0, p, probe[:2])


def test_apply_L_zero_vector_and_range():
    p = SystemParams(F(-1), F(2), 1, 2)
    zero = SolutionVector(p, [ZERO_POLY] * 3).entries
    for kind, sign, j in equation_index(1):
        assert apply_L(kind, sign, j, p, zero).is_zero()
    with pytest.raises(ValueError):
        apply_L("A", "+", 2, p, zero)
    with pytest.raises(ValueError):
        apply_L("B", "+", 0, p, zero)


def test_assemble_column_layout():
    p = SystemParams(F(-1), F(2), 1, 2)
    assert unknown_columns(p) == [(1, 2), (1, 0), (2, 1), (3, 0)]
    assert assemble_system(p).ncols == 4
    # N=0: only the two A_0 equations contribute rows
    p0 = SystemParams(F(-2), F(0), 0, 1)
    assert len(equation_index(0)) == 2
    assert assemble_system(p0).ncols == hom_dimension(p0)


def test_assemble_empty_blocks():
    # a = m - N: blocks with a - k < 0 contribute no columns
    p = SystemParams(F(0), F(1), 1, 2)
    assert unknown_columns(p) == [(1, 0)]


def test_assemble_requires_natural_a():
    with pytest.raises(ValueError):
        assemble_system(SystemParams(F(0), F(1, 2), 1, 2))


def test_nullspace_identity_and_zero():
    assert nullspace(dense_matrix(((F(1), F(0)), (F(0), F(1))), 2)) == []
    assert len(nullspace(dense_matrix(((F(0),) * 3, (F(0),) * 3), 3))) == 3


def test_nullspace_normalization():
    # elimination by hand gives span{(-1, 1, 0)}; normalized so the first
    # nonzero entry is 1 this is (1, -1, 0)
    basis = nullspace(dense_matrix(((F(1), F(1), F(0)), (F(0), F(0), F(1))), 3))
    assert basis == [(F(1), F(-1), F(0))]


def test_nullspace_rational_entries():
    mat = dense_matrix(((F(1, 2), F(1, 3), F(0)), (F(0), F(2, 7), F(2, 7))), 3)
    (vec,) = nullspace(mat)
    for row in mat.rows:
        assert sum(c * v for c, v in zip(row, vec)) == 0
    assert vec[0] == 1


def test_solve_reference_points():
    assert solve_xi(SystemParams(F(-1), F(2), 1, 2)).dimension == 1
    assert solve_xi(SystemParams(F(0), F(3), 1, 2)).dimension == 0
    assert solve_xi(SystemParams(F(1, 2), F(7, 2), 1, 2)).dimension == 0


def test_solve_rejects_wrong_orientation():
    with pytest.raises(UnsupportedRegimeError):
        solve_xi(SystemParams(F(-1), F(2), 1, -2))


def test_generator_at_reference_point():
    res = solve_xi(SystemParams(F(-1), F(2), 1, 2))
    gen = res.generator
    assert gen.g(1).is_zero() and gen.g(2).is_zero()
    assert gen.g(3) == Poly([1])
    assert gen.entries[-1] == gen.g(3)


def test_generator_satisfies_all_equations_and_spaces():
    for n_val, m_val, a in [(1, 2, 4), (2, 3, 5), (2, 4, 8), (3, 4, 6)]:
        for lam in sorted(lambda_set(n_val, a, m_val)):
            p = SystemParams(F(lam), F(lam + a), n_val, m_val)
            res = solve_xi(p)
            assert res.dimension == 1, (n_val, m_val, a, lam)
            for kind, sign, j in equation_index(n_val):
                assert apply_L(kind, sign, j, p, res.generator.entries).is_zero()


def test_dimension_zero_for_non_integer_lambda():
    for lam in (F(1, 2), F(-7, 3), F(5, 4)):
        for a in (2, 3, 6):
            p = SystemParams(lam, lam + a, 1, 2)
            assert solve_xi(p).dimension == 0


def test_hom_dimension_equals_columns():
    for n_val in range(3):
        for m_val in (n_val + 1, n_val + 2):
            for a in range(m_val - n_val, m_val + n_val + 3):
                p = SystemParams(F(-2), F(-2 + a), n_val, m_val)
                assert hom_dimension(p) == assemble_system(p).ncols


def test_proportionality_helper():
    p = SystemParams(F(-1), F(2), 1, 2)
    gen = solve_xi(p).generator
    assert proportionality(gen, gen.scaled(F(3, 7))).re == F(3, 7)
    assert proportionality(gen, SolutionVector(p, [ZERO_POLY] * 3)).re == 0
    assert proportionality(SolutionVector(p, [ZERO_POLY] * 3), gen) is None


def test_matrix_json():
    doc = assemble_system(SystemParams(F(0), F(1), 1, 2)).to_json()
    assert doc["cols"] == 1 and doc["rows"] == len(doc["entries"])
    assert all(isinstance(x, str) for row in doc["entries"] for x in row)


def _kernel_dimension_by_plain_elimination(rows, ncols):
    """Independent oracle: textbook Gaussian elimination over Fraction."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col] / lead
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return ncols - rank


def test_nullspace_against_plain_elimination():
    import random

    rng = random.Random(99)
    for trial in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = tuple(
            tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(ncols))
            for _ in range(nrows)
        )
        mat = dense_matrix(rows, ncols)
        basis = nullspace(mat)
        assert len(basis) == _kernel_dimension_by_plain_elimination(rows, ncols)
        for vec in basis:
            for row in rows:
                assert sum(c * v for c, v in zip(row, vec)) == 0


def test_nullspace_on_assembled_systems_against_plain_elimination():
    for n_val, m_val, a, lam in [(1, 2, 3, -1), (2, 3, 5, -4), (2, 3, 6, 0), (3, 4, 4, -2)]:
        mat = assemble_system(SystemParams(F(lam), F(lam + a), n_val, m_val))
        expected = _kernel_dimension_by_plain_elimination(mat.rows, mat.ncols)
        assert len(nullspace(mat)) == expected


def _nullspace_reference(matrix):
    """Dense fraction-free (Bareiss) elimination, first nonzero row as pivot, back-substituted in Fractions."""
    ncols = matrix.ncols
    work = []
    for row in matrix.rows:
        if all(x == 0 for x in row):
            continue
        scale = lcm(*[x.denominator for x in row])
        work.append([int(x * scale) for x in row])
    pivots = []
    prev = 1
    pivot_row = 0
    for col in range(ncols):
        found = next((r for r in range(pivot_row, len(work)) if work[r][col] != 0), None)
        if found is None:
            continue
        work[pivot_row], work[found] = work[found], work[pivot_row]
        lead = work[pivot_row][col]
        for r in range(pivot_row + 1, len(work)):
            entry = work[r][col]
            for c in range(col, ncols):
                quotient, remainder = divmod(lead * work[r][c] - entry * work[pivot_row][c], prev)
                assert not remainder
                work[r][c] = quotient
        pivots.append((pivot_row, col))
        prev = lead
        pivot_row += 1
        if pivot_row == len(work):
            break
    pivot_cols = [c for _, c in pivots]
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for r, c in reversed(pivots):
            if c > free:
                continue
            acc = sum((work[r][cc] * vec[cc] for cc in range(c + 1, ncols) if vec[cc]), F(0))
            vec[c] = -acc / work[r][c]
        first = next(x for x in vec if x)
        vec = [x / first for x in vec]
        for row in matrix.rows:
            assert sum(row[c] * vec[c] for c in range(ncols)) == 0
        basis.append(tuple(vec))
    return basis


def test_nullspace_matches_reference_on_desk_matrices():
    tasks = [t for t in build_tasks(SweepConfig()) if t.N <= 2]
    shapes = set()
    for task in tasks:
        params = SystemParams(task.lam, task.lam + task.a, task.N, task.m)
        matrix = assemble_system(params)
        assert nullspace(matrix) == _nullspace_reference(matrix), params
        shapes.add((matrix.nrows, matrix.ncols))
    assert len(tasks) > 500 and len(shapes) > 20


def test_nullspace_matches_reference_with_mixed_denominators():
    matrices = [
        ((F(1, 2), F(1, 3), F(0)), (F(0), F(2, 5), F(-7, 6))),
        ((F(0), F(0), F(0)), (F(3, 4), F(-3, 8), F(9, 16)), (F(1, 6), F(-1, 12), F(1, 8))),
        (
            (F(5, 7), F(0), F(-2, 9), F(4, 3)),
            (F(-10, 7), F(1, 11), F(4, 9), F(0)),
            (F(0), F(1, 11), F(0), F(8, 3)),
        ),
        ((F(2, 3), F(-4, 3)), (F(-1, 5), F(2, 5))),
        # int cells next to Fraction cells, empty rows at the top, in the middle and at the bottom
        (
            (0, 0, 0, 0),
            (3, F(1, 2), 0, -2),
            (0, 0, 0, 0),
            (F(-2, 3), 4, 6, 0),
            (1, 0, F(5, 4), 7),
            (0, 0, 0, 0),
        ),
    ]
    for rows in matrices:
        matrix = dense_matrix(rows, len(rows[0]))
        basis = nullspace(matrix)
        assert basis and basis == _nullspace_reference(matrix)


def _planted_sparse_matrix(rng, nrows, ncols):
    """A sparse rational matrix in which at least two columns are combinations of earlier ones.

    Fresh columns hold a few random entries with mixed denominators; a planted
    column is a rational combination of one or two earlier columns, or zero.
    Each planted column adds one to the kernel dimension.
    """
    planted = set(rng.sample(range(1, ncols), 2))
    planted |= {c for c in range(1, ncols) if rng.random() < 0.3}
    columns = []
    for c in range(ncols):
        if c in planted:
            column = [F(0)] * nrows
            for source in rng.sample(range(c), min(c, rng.randint(0, 2))):
                factor = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                column = [x + factor * y for x, y in zip(column, columns[source])]
        else:
            column = [F(0)] * nrows
            for r in rng.sample(range(nrows), rng.randint(1, min(3, nrows))):
                column[r] = F(rng.choice([-7, -2, -1, 1, 3, 4]), rng.randint(1, 6))
        columns.append(column)
    return [tuple(col[r] for col in columns) for r in range(nrows)], len(planted)


def test_nullspace_matches_reference_where_the_pivot_row_matters():
    import random

    rng = random.Random(15)
    dimensions = set()
    for trial in range(60):
        nrows, ncols = rng.randint(2, 9), rng.randint(4, 10)
        rows, planted = _planted_sparse_matrix(rng, nrows, ncols)
        basis = nullspace(dense_matrix(rows, ncols))
        assert len(basis) >= planted >= 2
        assert basis == _nullspace_reference(dense_matrix(rows, ncols)), trial
        for _ in range(3):
            rng.shuffle(rows)
            permuted = dense_matrix(rows, ncols)
            assert nullspace(permuted) == basis == _nullspace_reference(permuted), trial
        dimensions.add(len(basis))
    assert len(dimensions) >= 4


def test_nullspace_matches_reference_on_deep_and_paper_scale_matrices():
    # the three deep-points systems (N, m, a, lambda), then the 346 x 94 paper-scale one
    for n_val, m_val, a, lam in [(4, 5, 12, -11), (5, 6, 12, -10), (6, 7, 14, -7), (6, 7, 20, -25)]:
        matrix = assemble_system(SystemParams(F(lam), F(lam + a), n_val, m_val))
        basis = nullspace(matrix)
        assert len(basis) == 1 and basis == _nullspace_reference(matrix), (n_val, m_val, a, lam)
    assert (matrix.nrows, matrix.ncols) == (346, 94)
