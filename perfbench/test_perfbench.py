"""The benchmark's checkers accept breakops' outputs and reject wrong ones.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from breakops import cli, closedform, fsystem, operator, verify  # noqa: E402
from breakops.gegenbauer import gegenbauer  # noqa: E402
from spans import Tracer, metric_names  # noqa: E402
from workloads import DeepPoints, _real_coeffs  # noqa: E402

TINY_GRID = (1, 1, 0)  # max N, m span, a extra


@pytest.fixture(scope="module")
def sweep_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "doc.json"
    max_n, m_span, a_extra = TINY_GRID
    code = cli.main(["sweep", "--max-N", str(max_n), "--m-span", str(m_span),
                     "--a-extra", str(a_extra), "--jobs", "1", "--out", str(out)])
    assert code == cli.EXIT_OK
    return json.loads(out.read_text())


def test_sweep_checker_accepts_the_program_output(sweep_doc):
    assert checks.check_sweep_document(sweep_doc, checks.desk_grid(*TINY_GRID)) == ([], 0)


def test_sweep_checker_rejects_a_flipped_dimension(sweep_doc):
    doc = copy.deepcopy(sweep_doc)
    cert = next(c for c in doc["certificates"] if c["xi_dimension"] == 1)
    cert["xi_dimension"] = 0
    problems, _ = checks.check_sweep_document(doc, checks.desk_grid(*TINY_GRID))
    assert any("predicate says 1" in p for p in problems)


def test_sweep_checker_rejects_a_missing_certificate(sweep_doc):
    doc = copy.deepcopy(sweep_doc)
    del doc["certificates"][5]
    doc["summary"]["checked"] -= 1
    problems, _ = checks.check_sweep_document(doc, checks.desk_grid(*TINY_GRID))
    assert any("have no certificate" in p for p in problems)


def test_sweep_checker_counts_failed_certificates(sweep_doc):
    doc = copy.deepcopy(sweep_doc)
    doc["certificates"][0]["pass"] = False
    doc["summary"]["failures"] = 1
    assert checks.check_sweep_document(doc, checks.desk_grid(*TINY_GRID)) == ([], 1)


@pytest.fixture(scope="module")
def small_point():
    params = fsystem.SystemParams(Fraction(-4), Fraction(0), 1, 2)
    outcome = DeepPoints.certify(params)
    return params, DeepPoints._snapshot(outcome)


def test_deep_checks_accept_the_program_output(small_point):
    params, snap = small_point
    assert DeepPoints._check(params, snap) == []


def test_generator_checker_rejects_a_changed_coefficient(small_point):
    params, snap = small_point
    components = copy.deepcopy(snap["generator"])
    offset, degree = next((k, d) for k, g in enumerate(components) for d, c in enumerate(g) if c)
    components[offset][degree] += 1
    problems = checks.check_generator(params.N, params.m, params.lam, params.a, components)
    assert any("violates equations" in p for p in problems)


def test_operator_checker_rejects_unproportional_emissions(small_point):
    params, snap = small_point
    canonical = dict(snap["canonical"])
    key = min(canonical)
    re, im = canonical[key]
    canonical[key] = (2 * re + 1, 2 * im)
    problems = checks.check_operators(snap["paper"], canonical, params.a)
    assert "emissions are not proportional by a nonzero scalar" in problems


def test_dual_checker_rejects_a_missed_zeta2_flip(small_point):
    _, snap = small_point
    unflipped = list(reversed(snap["psi"]))
    assert checks.check_dual(snap["psi"], unflipped, snap["psi"])


def test_gegenbauer_checker_rejects_a_coefficient_off_by_one():
    table = {(ell, mu): _real_coeffs(gegenbauer(ell, mu))
             for ell in range(4) for mu in (Fraction(-5, 2), Fraction(1, 3), Fraction(2))}
    assert checks.check_gegenbauer_coefficients(table) == []
    table[3, Fraction(1, 3)][1] += 1
    assert len(checks.check_gegenbauer_coefficients(table)) == 1


def test_suite_case_counts_follow_the_grid():
    mus = (Fraction(-1), Fraction(1, 2))
    results = verify.gegenbauer_suite(max_ell=1, mu_values=mus, max_d=0) + verify.hypergeom_suite(max_n=1)
    triples = [(r.name, r.cases, r.failures) for r in results]
    expected = {**checks.gegenbauer_case_counts(1, len(mus), 0), **checks.hypergeom_case_counts(1)}
    assert checks.check_suite_results(triples, expected) == ([], 0)
    name, cases, failures = triples[2]
    triples[2] = (name, cases - 1, failures)
    assert checks.check_suite_results(triples, expected)[0]


def test_tracer_counts_spans_and_restores_the_program():
    original = fsystem.assemble_system
    params = fsystem.SystemParams(Fraction(-4), Fraction(0), 1, 2)
    tracer = Tracer().install()
    try:
        operator.emit_operator(params, "canonical")  # reaches assemble_system through operator.solve_xi
        layers = tracer.take()
    finally:
        tracer.remove()
    assert fsystem.assemble_system is original and closedform.dual_solution.__name__ == "dual_solution"
    matrix = fsystem.assemble_system(params)
    assert layers["fsystem.assemble_system_calls"] == 1
    assert layers["fsystem.matrix_cells"] == matrix.nrows * matrix.ncols
    assert layers["operator.emit_operator_calls"] == 1
    assert layers["rational.gaussian_made"] > 0 and layers["poly.poly_made"] > 0
    assert sorted(layers) == sorted(metric_names())
    assert all(layers[name] >= 0 for name in layers if name.endswith("_s"))


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
