"""The benchmark's workloads: fixed inputs, one timed pass, and its checks.

A workload object is built once per process (that is part of set-up), then
``run_pass`` is timed and ``check_pass`` runs outside the timing on what the
pass returned.  ``check_pass`` returns the number of failed items of that
pass and appends every wrong output it finds to ``problems``.  ``final_check``
runs once, after all passes: checks too slow to repeat, and clean-up.

No input depends on a random seed: the grids below are the whole input.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from breakops import cli, closedform, fsystem, operator, verify
from breakops.gegenbauer import gegenbauer

import checks


def _real_coeffs(poly) -> list[Fraction]:
    if not poly.is_real():
        raise ArithmeticError(f"{poly!r} has a non-real coefficient")
    return [c.re for c in poly.coeffs]


def _terms(mapping) -> dict:
    """DiffOperator / MultiPoly terms as {key: (re, im)} of plain Fractions."""
    return {tuple(key): (value.re, value.im) for key, value in mapping.items()}


class DeskSweep:
    """``breakops sweep`` run in-process on a cut of the desk grid."""

    name = "desk-sweep"
    MAX_N, M_SPAN, A_EXTRA = 2, 1, 1

    def __init__(self, out_dir: str):
        self.out_path = os.path.join(out_dir, f"desk-sweep-{os.getpid()}.json")
        self.argv = [
            "sweep", "--max-N", str(self.MAX_N), "--m-span", str(self.M_SPAN),
            "--a-extra", str(self.A_EXTRA), "--jobs", "1", "--out", self.out_path,
        ]
        self.grid = checks.desk_grid(self.MAX_N, self.M_SPAN, self.A_EXTRA)
        self.items_per_pass = len(self.grid)
        self.problems: list[str] = []
        self._first: bytes | None = None
        self._first_failed = 0

    def run_pass(self):
        return cli.main(self.argv)

    def check_pass(self, code) -> int:
        with open(self.out_path, "rb") as handle:
            data = handle.read()
        if data == self._first:
            failed = self._first_failed
        else:
            if self._first is not None:
                self.problems.append("sweep document bytes differ between passes")
            problems, failed = checks.check_sweep_document(json.loads(data), self.grid)
            self.problems += problems
            self._first, self._first_failed = data, failed
        if code != (cli.EXIT_CHECK_FAILED if failed else cli.EXIT_OK):
            self.problems.append(f"sweep exited {code} with {failed} failed certificates")
        return failed

    def final_check(self) -> None:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)


# (N, a, lambda) with m = N + 1; each point is certified with its mirror -m.
DEEP_POINTS = ((4, 12, -11), (5, 12, -10), (6, 14, -7))


class DeepPoints:
    """A few large one-dimensional systems driven through the sweep's chain."""

    name = "deep-points"

    def __init__(self, out_dir: str):
        self.points = [fsystem.SystemParams(Fraction(lam), Fraction(lam + a), N, N + 1)
                       for N, a, lam in DEEP_POINTS]
        self.items_per_pass = 2 * len(self.points)
        self.problems: list[str] = []
        self._first = None

    @staticmethod
    def certify(params) -> dict:
        """The chain the sweep runs at a one-dimensional point, operators on."""
        out = {"result": fsystem.solve_xi(params)}
        out["closed"] = closedform.closed_solution(params)
        out["psi"] = operator.symbol_psi(params, out["result"].generator)
        out["paper"] = operator.emit_operator(params, "paper")
        out["canonical"] = operator.symbol_to_operator(out["psi"])
        out["scalar"] = operator.compare_up_to_scalar(out["paper"], out["canonical"])
        out["flipped"] = closedform.dual_solution(out["psi"], params)
        out["twice"] = closedform.dual_solution(out["flipped"], params)
        out["mirror_paper"] = operator.emit_operator(params.mirrored(), "paper")
        out["mirror_canonical"] = operator.symbol_to_operator(out["flipped"])
        out["mirror_scalar"] = operator.compare_up_to_scalar(out["mirror_paper"], out["mirror_canonical"])
        return out

    def run_pass(self):
        outcomes = []
        for params in self.points:
            try:
                outcomes.append(self.certify(params))
            except Exception as exc:  # a raising point is a failed item, the pass goes on
                outcomes.append(exc)
        return outcomes

    def check_pass(self, outcomes) -> int:
        snapshot = [self._snapshot(o) for o in outcomes]
        if self._first is None:
            self._first = snapshot
            for params, snap in zip(self.points, snapshot):
                if snap is not None:
                    self.problems += [f"{params.to_json()}: {p}" for p in self._check(params, snap)]
        elif snapshot != self._first:
            self.problems.append("deep-points outputs differ between passes")
        failed = 0
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                failed += 2
            else:
                # the program's own verdicts: both scalars must exist and be nonzero
                failed += (not outcome["scalar"]) + (not outcome["mirror_scalar"])
        return failed

    def final_check(self) -> None:
        pass

    @staticmethod
    def _snapshot(outcome):
        """The outputs as plain Fractions, so the checks use no breakops code."""
        if isinstance(outcome, Exception):
            return None
        generator = outcome["result"].generator
        snap = {
            "dimension": outcome["result"].dimension,
            "generator": [_real_coeffs(g) for g in generator.entries] if generator else None,
            "closed": [{d: (c.re, c.im) for d, c in enumerate(g.coeffs) if c} for g in outcome["closed"].entries],
        }
        for key in ("psi", "flipped", "twice"):
            snap[key] = [_terms(c.terms) for c in outcome[key].components]
        for key in ("paper", "canonical", "mirror_paper", "mirror_canonical"):
            snap[key] = _terms(outcome[key].terms)
        return snap

    @staticmethod
    def _check(params, snap) -> list[str]:
        N, m, lam, a = params.N, params.m, params.lam, int(params.nu - params.lam)
        if snap["dimension"] != 1 or snap["generator"] is None:
            return [f"solution space has dimension {snap['dimension']}, expected a line"]
        problems = checks.check_generator(N, m, lam, a, snap["generator"])
        generator = {(k, d): (c, Fraction(0)) for k, g in enumerate(snap["generator"])
                     for d, c in enumerate(g) if c}
        closed = {(k, d): c for k, g in enumerate(snap["closed"]) for d, c in g.items()}
        if not checks.proportional(generator, closed):
            problems.append("closed form is not a nonzero multiple of the generator")
        problems += checks.check_operators(snap["paper"], snap["canonical"], a)
        problems += ["mirror: " + p for p in
                     checks.check_operators(snap["mirror_paper"], snap["mirror_canonical"], a)]
        problems += checks.check_dual(snap["psi"], snap["flipped"], snap["twice"])
        return problems


class IdentitySuites:
    """The criterion-5 Gegenbauer and hypergeometric suites on a reduced grid."""

    name = "identity-suites"
    MAX_ELL, MAX_D, MAX_N = 3, 1, 8
    # a pole of Gamma (-3), halves, thirds and a positive integer
    MUS = tuple(Fraction(x) for x in ("-3", "-5/2", "-2/3", "1/2", "2", "5/3"))

    def __init__(self, out_dir: str):
        self.expected = {
            **checks.gegenbauer_case_counts(self.MAX_ELL, len(self.MUS), self.MAX_D),
            **checks.hypergeom_case_counts(self.MAX_N),
        }
        self.items_per_pass = sum(self.expected.values())
        self.problems: list[str] = []

    def run_pass(self):
        return (verify.gegenbauer_suite(max_ell=self.MAX_ELL, mu_values=self.MUS, max_d=self.MAX_D)
                + verify.hypergeom_suite(max_n=self.MAX_N))

    def check_pass(self, results) -> int:
        triples = [(r.name, r.cases, r.failures) for r in results]
        problems, failed = checks.check_suite_results(triples, self.expected)
        self.problems += problems
        return failed

    def final_check(self) -> None:
        table = {}
        for ell in range(self.MAX_ELL + 1):
            for mu in self.MUS:
                poly = gegenbauer(ell, mu)
                if poly.is_real():
                    table[ell, mu] = [c.re for c in poly.coeffs]
                else:
                    self.problems.append(f"gegenbauer({ell}, {mu}) has a non-real coefficient")
        self.problems += checks.check_gegenbauer_coefficients(table)


WORKLOADS = {w.name: w for w in (DeskSweep, DeepPoints, IdentitySuites)}
