"""Command-line front end: classify, solve, operator, sweep, verify.

Exit codes: 0 success, 2 invalid or unsupported parameters, 3 an empty
solution space was requested as if nonempty, 4 an internal cross-check
failed.  Rationals cross this boundary as strings only ("p/q", q omitted
when 1); there is no floating point anywhere in the interface.  All JSON is
dumped with sorted keys and sorted term lists, so identical inputs produce
byte-identical output regardless of parallelism.

Note: argparse treats a leading dash as an option prefix, so non-integer
rationals should be passed in the --flag=value form, e.g. --lambda=-7/3.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

from . import closedform, fsystem, operator, sweep, verify
from .fsystem import NoSolutionError

EXIT_OK = 0
EXIT_BAD_PARAMS = 2
EXIT_EMPTY = 3
EXIT_CHECK_FAILED = 4


def _dump(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _write(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _error(args, params, message: str, code: int, **fields) -> int:
    """Write the error document for a parameter point and return the exit code."""
    _write(_dump({"error": message, "params": params.to_json(), **fields}), args.out)
    return code


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="lam", required=True, help="rational, e.g. -1 or --lambda=-7/3")
    parser.add_argument("--nu", dest="nu", required=True, help="rational")
    parser.add_argument("-N", dest="big_n", type=int, required=True)
    parser.add_argument("-m", dest="m", type=int, required=True)


def cmd_classify(args) -> int:
    params = fsystem.SystemParams.of(args.lam, args.nu, args.big_n, args.m)
    outcome = closedform.classify(params)
    if args.format == "text":
        status = "one-dimensional" if outcome.dimension else "zero"
        _write(
            f"space is {status}; lambda admissible: {outcome.lambda_admissible}; "
            f"nu admissible: {outcome.nu_admissible}; sporadic: {outcome.sporadic}; "
            f"all operators differential: {outcome.all_sbos_differential}\n",
            args.out,
        )
    else:
        _write(_dump(outcome.to_json()), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    params = fsystem.SystemParams.of(args.lam, args.nu, args.big_n, args.m)
    via_duality = params.m < -params.N
    oriented = params.mirrored() if via_duality else params
    result = fsystem.solve_xi(oriented)
    if result.dimension == 0:
        return _error(args, params, "solution space is zero at these parameters", EXIT_EMPTY, dimension=0)
    if result.generator is None:
        return _error(args, params, "solution space is not a line; uniqueness cross-check failed",
                      EXIT_CHECK_FAILED, dimension=result.dimension)
    document = result.generator.to_json()
    document["dimension"] = result.dimension
    document["via_duality"] = via_duality
    if via_duality:
        document["requested_params"] = params.to_json()
        document["note"] = (
            "components solve the mirrored (m > N) system; the requested sign is "
            "reached by the component-reversing involution at the symbol level"
        )
    if args.format == "text":
        lines = [f"dimension {result.dimension}"]
        k0 = oriented.m - oriented.N
        for idx, g in enumerate(result.generator.entries):
            lines.append(f"g_{k0 + idx} = {g!r}")
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(_dump(document), args.out)
    return EXIT_OK


def cmd_operator(args) -> int:
    params = fsystem.SystemParams.of(args.lam, args.nu, args.big_n, args.m)
    forms = ["paper", "canonical"] if args.form == "both" else [args.form]
    try:
        emitted = {form: operator.emit_operator(params, form) for form in forms}
    except NoSolutionError as exc:
        return _error(args, params, str(exc), EXIT_EMPTY, dimension=0)
    scalar = None
    if args.form == "both":  # the routes are cross-checked whatever the output format
        scalar = operator.compare_up_to_scalar(emitted["paper"], emitted["canonical"])
        if scalar is None or not scalar:
            return _error(args, params, "operator routes disagree", EXIT_CHECK_FAILED)
    if args.format == "latex":
        _write("\n".join(emitted[f].latex() for f in forms) + "\n", args.out)
        return EXIT_OK
    if args.format == "text":
        chunks = []
        for form in forms:
            chunks.append(f"[{form}]")
            for (d, p, q, r), coeff in emitted[form].sorted_terms():
                chunks.append(f"  ({coeff}) dz^{p} dzbar^{q} dx3^{r} (x) u_{d}")
        _write("\n".join(chunks) + "\n", args.out)
        return EXIT_OK
    document = {form: emitted[form].to_json() for form in forms}
    lead_key, lead_coeff = emitted[forms[0]].sorted_terms()[0]
    document["normalization"] = {
        "convention": "leading (d,p,q,r)-lexicographic term of the first requested form",
        "leading_term": {"d": lead_key[0], "p": lead_key[1], "q": lead_key[2], "r": lead_key[3]},
        "leading_coeff": lead_coeff.to_json(),
    }
    if scalar is not None:
        document["proportionality"] = scalar.to_json()
    _write(_dump(document), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if args.out and args.out != "-":  # checked before the grid is computed
        directory = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out):
            raise ValueError(f"cannot write --out {args.out}: {os.strerror(errno.EISDIR)}")
        if not os.access(directory, os.W_OK):
            reason = os.strerror(errno.EACCES if os.path.isdir(directory) else errno.ENOENT)
            raise ValueError(f"cannot write --out {args.out}: {reason}")
    config = sweep.SweepConfig(
        max_n=args.max_n,
        m_span=args.m_span,
        a_extra=args.a_extra,
        include_negative_m=not args.positive_only,
        operator_max_n=args.operator_max_n,
        jobs=args.jobs,
    )
    document = sweep.sweep_document(config)
    if not document["summary"]["checked"]:
        raise ValueError("empty grid: --max-N, --m-span and --a-extra leave no point to check")
    _write(_dump(document), args.out)
    summary_line = json.dumps(document["summary"], sort_keys=True)
    print(summary_line, file=sys.stderr)
    return EXIT_CHECK_FAILED if document["summary"]["failures"] else EXIT_OK


SUITES = {
    "gegenbauer": lambda args: verify.gegenbauer_suite(max_ell=args.max_ell),
    "hypergeom": lambda args: verify.hypergeom_suite(max_n=args.max_n),
    "system": lambda args: verify.system_suite(),
    "operator": lambda args: verify.operator_suite(),
}


def cmd_verify(args) -> int:
    if args.max_ell < 0 or args.max_n < 0:
        raise ValueError("--max-ell and --max-n must be natural numbers")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.quick:
        args.max_ell = min(args.max_ell, 8)
        args.max_n = min(args.max_n, 5)
    results = []
    for name in names:
        for check in SUITES[name](args):
            results.append((name, check))
    if args.format == "json":
        document = {
            "results": [dict(suite=name, **check.to_json()) for name, check in results],
            "total_cases": sum(check.cases for _, check in results),
            "total_failures": sum(check.failures for _, check in results),
        }
        _write(_dump(document), args.out)
    else:
        lines = []
        for name, check in results:
            status = "ok" if not check.failures else f"FAIL({check.failures})"
            lines.append(f"{name}: {check.name}: cases={check.cases} {status}")
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_CHECK_FAILED if any(check.failures for _, check in results) else EXIT_OK


# One parser serves every call, since each build leaves argparse's reference
# cycles for the collector; it is built on first use, not at import.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="breakops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="existence/uniqueness test at a parameter point")
    _add_param_flags(p_classify)
    p_classify.add_argument("--format", choices=["json", "text"], default="json")
    p_classify.add_argument("--out", default=None)
    p_classify.set_defaults(func=cmd_classify)

    p_solve = sub.add_parser("solve", help="exact nullspace generator of the equation system")
    _add_param_flags(p_solve)
    p_solve.add_argument("--format", choices=["json", "text"], default="json")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_operator = sub.add_parser("operator", help="emit the differential operator")
    _add_param_flags(p_operator)
    p_operator.add_argument("--form", choices=["paper", "canonical", "both"], default="paper")
    p_operator.add_argument("--format", choices=["json", "text", "latex"], default="json")
    p_operator.add_argument("--out", default=None)
    p_operator.set_defaults(func=cmd_operator)

    p_sweep = sub.add_parser("sweep", help="cross-check classification/solutions/operators on a grid")
    p_sweep.add_argument("--max-N", dest="max_n", type=int, default=3)
    p_sweep.add_argument("--m-span", type=int, default=4, help="m runs over N+1..N+span")
    p_sweep.add_argument("--a-extra", type=int, default=4, help="a runs over m-N..m+N+extra")
    p_sweep.add_argument("--operator-max-N", dest="operator_max_n", type=int, default=2)
    p_sweep.add_argument("--positive-only", action="store_true")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the exact identity suites")
    p_verify.add_argument("--suite", choices=["gegenbauer", "hypergeom", "system", "operator", "all"], default="all")
    p_verify.add_argument("--max-ell", type=int, default=12)
    p_verify.add_argument("--max-n", type=int, default=8)
    p_verify.add_argument("--quick", action="store_true")
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoSolutionError as exc:
        error, code = str(exc), EXIT_EMPTY
    except ValueError as exc:  # UnsupportedRegimeError and unwritable --out paths included
        error, code = str(exc), EXIT_BAD_PARAMS
    except ArithmeticError as exc:  # PoleError included: an internal cross-check failed
        error, code = f"internal check failed: {exc}", EXIT_CHECK_FAILED
    print(json.dumps({"error": error}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
