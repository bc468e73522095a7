"""Deterministic parameter sweep that cross-checks every route at every point.

A sweep point is (N, m, a, lambda) with nu := lambda + a.  At each point the
harness compares the existence predicate against the exact nullspace
dimension, and at one-dimensional points it additionally checks that the
closed-form generator spans the nullspace, is annihilated by all equations,
and that both operator emission routes agree up to a nonzero scalar (the
operator checks are bounded to N <= operator_max_n to keep desk runs fast).
The canonical operator is read off the nullspace generator, one term per
coefficient.  Negative m is certified through the duality: the mirrored
point reuses the positive solve, applies the involution to the canonical
operator, and compares it against the literal negative-orientation formulas.

Workers may evaluate points concurrently, but certificates are emitted in
ascending (N, m, a, lambda) order regardless of scheduling, so output files
are byte-identical across parallelism degrees.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import closedform, fsystem, operator

# lambda runs from LAMBDA_PAD_LOW below 1-N-a, the least admissible value at
# (N, a), to LAMBDA_PAD_HIGH above N+1-a, the greatest, so that dimension-0
# points flank every admissible set
LAMBDA_PAD_LOW = 3
LAMBDA_PAD_HIGH = 2
# non-integer lambda at every (N, m, a), where the space is always zero
EXTRA_LAMBDAS = (Fraction(1, 2), Fraction(-7, 3))


@dataclass(frozen=True)
class SweepConfig:
    """The grid as ``breakops sweep`` takes it (N in 0..max_n, m in N+1..N+m_span); defaults are the desk grid."""

    max_n: int = 3
    m_span: int = 4
    a_extra: int = 4
    include_negative_m: bool = True
    operator_max_n: int = 2
    jobs: int = 1

    def to_json(self) -> dict:
        # jobs is a scheduling knob, not part of the grid; leaving it out
        # keeps output files byte-identical across parallelism degrees
        return {
            "n_values": list(range(self.max_n + 1)),
            "m_offsets": list(range(1, self.m_span + 1)),
            "a_extra": self.a_extra,
            "lambda_pad_low": LAMBDA_PAD_LOW,
            "lambda_pad_high": LAMBDA_PAD_HIGH,
            "extra_lambdas": [str(x) for x in EXTRA_LAMBDAS],
            "include_negative_m": self.include_negative_m,
            "operator_max_n": self.operator_max_n,
        }


@dataclass(frozen=True)
class SweepTask:
    N: int
    m: int  # positive orientation
    a: int
    lam: Fraction | int
    include_negative: bool
    operator_max_n: int


@dataclass
class Certificate:
    """All cross-check outcomes at a single parameter point."""

    params: fsystem.SystemParams
    classification: closedform.Classification
    xi_dimension: int
    dimension_match: bool
    generator_proportionality: object = None  # GaussianRational | None
    annihilated: bool | None = None
    even_space_ok: bool | None = None
    operator_scalar: object = None  # GaussianRational | None
    operator_order_ok: bool | None = None
    duality_involution_ok: bool | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def sort_key(self):
        p = self.params
        return (p.N, p.m, p.nu - p.lam, p.lam)

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "classification": self.classification.to_json(),
            "xi_dimension": self.xi_dimension,
            "dimension_match": self.dimension_match,
            "generator_proportionality": (
                None if self.generator_proportionality is None else self.generator_proportionality.to_json()
            ),
            "annihilated": self.annihilated,
            "even_space_ok": self.even_space_ok,
            "operator_scalar": (
                None if self.operator_scalar is None else self.operator_scalar.to_json()
            ),
            "operator_order_ok": self.operator_order_ok,
            "duality_involution_ok": self.duality_involution_ok,
            "failures": list(self.failures),
            "pass": self.passed,
        }


def build_tasks(config: SweepConfig) -> list[SweepTask]:
    tasks = []
    for n_val in range(config.max_n + 1):
        for m in range(n_val + 1, n_val + config.m_span + 1):
            for a in range(m - n_val, m + n_val + config.a_extra + 1):
                lows = 1 - n_val - a - LAMBDA_PAD_LOW
                highs = n_val + 1 - a + LAMBDA_PAD_HIGH
                for lam in [*range(lows, highs + 1), *EXTRA_LAMBDAS]:
                    tasks.append(
                        SweepTask(n_val, m, a, lam, config.include_negative_m, config.operator_max_n)
                    )
    return tasks


def _certificate(params: fsystem.SystemParams, xi_dimension: int, mismatch_text: str) -> Certificate:
    """The certificate of one point, failing with mismatch_text when the predicate disagrees."""
    outcome = closedform.classify(params)
    cert = Certificate(
        params=params,
        classification=outcome,
        xi_dimension=xi_dimension,
        dimension_match=xi_dimension == outcome.dimension,
    )
    if not cert.dimension_match:
        cert.failures.append(mismatch_text)
    return cert


def _check_routes(cert: Certificate, canonical: operator.DiffOperator, a: int,
                  not_proportional_text: str, bad_order_text: str) -> None:
    """Compare the paper-form emission at the certificate's point with the canonical operator."""
    paper = operator.emit_operator(cert.params, "paper")
    scalar = operator.compare_up_to_scalar(paper, canonical)
    cert.operator_scalar = scalar
    if scalar is None or not scalar:
        cert.failures.append(not_proportional_text)
    cert.operator_order_ok = paper.orders() == {a}
    if not cert.operator_order_ok:
        cert.failures.append(bad_order_text)


def evaluate_task(task: SweepTask) -> list[Certificate]:
    """Certify the positive point and, when asked, its mirror image."""
    params = fsystem.SystemParams(task.lam, task.lam + task.a, task.N, task.m)
    result = fsystem.solve_xi(params)
    cert = _certificate(params, result.dimension, "nullspace dimension disagrees with the predicate")
    out = [cert]
    check_operators = task.N <= task.operator_max_n

    canonical = None
    if result.dimension == 1 and cert.classification.dimension == 1:
        try:
            closed = closedform.closed_solution(params)
            cert.even_space_ok = True
        except ValueError:
            cert.even_space_ok = False
            cert.failures.append("closed form violates its parity spaces")
            closed = None
        if closed is not None:
            scalar = fsystem.proportionality(result.generator, closed)
            cert.generator_proportionality = scalar
            if scalar is None or not scalar:
                cert.failures.append("closed form is not a nonzero multiple of the nullspace generator")
            cert.annihilated = all(
                fsystem.apply_L(*eq, params, closed.entries).is_zero() for eq in fsystem.equation_index(params.N)
            )
            if not cert.annihilated:
                cert.failures.append("closed form is not annihilated by all equations")
        canonical = operator.read_off(params, result.generator)
        if check_operators:
            _check_routes(cert, canonical, task.a, "operator routes are not proportional by a nonzero scalar",
                          "paper-form term order differs from nu - lambda")

    if task.include_negative:
        neg = _certificate(params.mirrored(), result.dimension, "mirrored dimension disagrees with the predicate")
        if canonical is not None:
            flipped = operator.mirror_operator(canonical, task.N)
            neg.duality_involution_ok = operator.mirror_operator(flipped, task.N) == canonical
            if not neg.duality_involution_ok:
                neg.failures.append("duality fails to be an involution on the generator symbol")
            if check_operators:
                _check_routes(neg, flipped, task.a, "mirrored operator routes are not proportional",
                              "mirrored paper-form term order differs from nu - lambda")
        out.append(neg)
    return out


def run_sweep(config: SweepConfig) -> tuple[list[Certificate], dict]:
    """Evaluate the whole grid and return certificates plus a summary."""
    tasks = build_tasks(config)
    certificates: list[Certificate] = []
    workers = min(config.jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(evaluate_task, tasks, chunksize=8):
                certificates.extend(batch)
    else:
        for task in tasks:
            certificates.extend(evaluate_task(task))
    certificates.sort(key=Certificate.sort_key)
    summary = {
        "checked": len(certificates),
        "dim0": sum(1 for c in certificates if c.xi_dimension == 0),
        "dim1": sum(1 for c in certificates if c.xi_dimension == 1),
        "failures": sum(1 for c in certificates if not c.passed),
    }
    return certificates, summary


def sweep_document(config: SweepConfig) -> dict:
    certificates, summary = run_sweep(config)
    return {
        "config": config.to_json(),
        "certificates": [c.to_json() for c in certificates],
        "summary": summary,
    }
