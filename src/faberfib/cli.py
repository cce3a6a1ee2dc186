"""Command line front end.

Every subcommand prints a single JSON document on stdout (or CSV rows
for the tabular commands when --output csv is given) and is
byte-deterministic for fixed inputs.  Exit codes: 0 on success, 2 for
usage errors (argparse's own convention: bad flags, unreadable or
non-finite arguments, csv on a non-tabular subcommand), 3 for domain
errors such as a pole, a zero weight, or an index out of range; every
error prints a structured JSON object on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .bounds import (
    DEFAULT_PRECISION,
    BoundReport,
    bound_a2,
    bound_a3,
    bound_theorem1,
    corollary_check,
)
from .exact import (
    ExactComplex,
    QSqrt5,
    parse_rational,
    parse_scalar,
    render_rational,
    render_scalar,
)
from .faber import faber_inverse_coefficients, faber_polynomial, partial_bell
from .golden import (
    golden_coefficients,
    golden_value,
    golden_value_exact,
    solve_schwarz,
)
from .series import TruncatedSeries
from .tremblay import (
    ClassParams,
    OperatorParams,
    apply_operator,
    membership_witness,
    subordination_lhs,
)

ENV_PRECISION = "FABERFIB_PRECISION"
# largest `fib --count`: F_20000 has 4180 digits, within Python's default
# 4300-digit limit on int-to-text conversion
MAX_FIB_COUNT = 20000


class _UsageError(Exception):
    """A flag combination argparse alone cannot reject."""


def _report_error(kind: str, message: str) -> None:
    """Print the JSON error object every failing run leaves on stderr."""
    error = {"error": {"type": kind, "message": message}}
    print(json.dumps(error, indent=2), file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage errors as the JSON error object."""

    def error(self, message):
        _report_error("UsageError", f"{self.prog}: {message}")
        self.exit(2)


# -- argument conversion -------------------------------------------------------


def _parsed(convert, text: str):
    """Apply a scalar converter, turning any parse failure into a usage error."""
    try:
        return convert(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _arg_scalar(text: str) -> ExactComplex:
    return _parsed(parse_scalar, text)


def _arg_rational(text: str) -> Fraction:
    return _parsed(parse_rational, text)


def _arg_coeffs(text: str) -> list[ExactComplex]:
    return _parsed(lambda t: [parse_scalar(part) for part in t.split(",")], text)


def _arg_precision(text: str) -> int:
    try:
        bits = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"precision must be an integer: {text!r}") from exc
    if bits < 53:
        raise argparse.ArgumentTypeError("precision below 53 bits cannot cover a double")
    return bits


def _arg_point(text: str):
    """Evaluation point: exact scalar text, or a finite 're,im' / plain float."""
    try:
        return "exact", parse_scalar(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        exact_error = exc
    try:
        if "," in text:
            re_part, im_part = text.split(",", 1)
            point = complex(float(re_part), float(im_part))
        else:
            point = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(str(exact_error)) from exact_error
    if not cmath.isfinite(point):
        raise argparse.ArgumentTypeError(f"evaluation point {text!r} is not finite")
    return "numeric", point


def _default_precision() -> int:
    raw = os.environ.get(ENV_PRECISION)
    if raw is None:
        return DEFAULT_PRECISION
    bits = int(raw)
    if bits < 53:
        raise ValueError(f"{ENV_PRECISION} must be at least 53, got {bits}")
    return bits


# -- rendering helpers ---------------------------------------------------------


def _demoted(values):
    """Shrink a list of ExactComplex to the smallest coefficient field."""
    if all(v.is_real for v in values):
        reals = [v.real for v in values]
        if all(r.is_rational for r in reals):
            return [r.to_fraction() for r in reals], Fraction
        return reals, QSqrt5
    return list(values), ExactComplex


def _series_from(values) -> TruncatedSeries:
    coeffs, field = _demoted(values)
    return TruncatedSeries(coeffs, field)


def _coeff_out(value, fmt: str):
    if fmt == "exact":
        return render_scalar(value)
    if isinstance(value, ExactComplex):
        if value.is_real:
            return float(value.real)
        as_complex = complex(value)
        return {"re": as_complex.real, "im": as_complex.imag}
    return float(value)


def _candidate_payload(candidate, fmt: str) -> dict:
    return {
        "coefficients": [_coeff_out(c, fmt) for c in candidate.coeffs],
        "c1_within_unit": candidate.c1_within_unit,
        "c2_within_margin": candidate.c2_within_margin,
        "c1_on_boundary": candidate.c1_on_boundary,
        "c2_on_boundary": candidate.c2_on_boundary,
        "feasible": candidate.feasible,
    }


def _bound_payload(report: BoundReport, precision: int) -> dict:
    payload = {
        "kind": report.kind,
        "gamma": render_scalar(report.gamma),
        "mu": render_rational(report.op.mu),
        "rho": render_rational(report.op.rho),
        "precision": precision,
        "bound_float": report.value,
        "error_bound": report.error,
        "exact": report.exact,
    }
    if report.n is not None:
        payload["n"] = report.n
    if report.branch is not None:
        payload["branch"] = report.branch
        payload["branches"] = [
            {
                "label": b.label,
                "float": b.value,
                "error_bound": b.error,
                "exact": b.exact,
            }
            for b in report.branches
        ]
    if report.second_bracket_negative is not None:
        payload["second_bracket_negative"] = report.second_bracket_negative
    return payload


def _bound_csv_row(report: BoundReport, implied_n: int | None) -> dict:
    return {
        "n": report.n if report.n is not None else implied_n,
        "gamma": render_scalar(report.gamma),
        "mu": render_rational(report.op.mu),
        "rho": render_rational(report.op.rho),
        "branch": report.branch or "",
        "exact": report.exact or "",
        "float": repr(report.value),
        "error_bound": repr(report.error),
    }


# -- subcommand handlers -------------------------------------------------------
# each returns (payload, csv_columns, csv_rows); csv_columns is None when
# the subcommand has no tabular form


def _cmd_revert(args):
    series = _series_from(args.coeffs)
    inverse = series.revert()
    payload = {
        "command": "revert",
        "order": inverse.order,
        "coefficients": [_coeff_out(c, args.format) for c in inverse.coeffs],
    }
    return payload, None, None


def _cmd_bell(args):
    value = partial_bell(args.n, args.m, args.coeffs)
    payload = {
        "command": "bell",
        "n": args.n,
        "m": args.m,
        "value": _coeff_out(ExactComplex(value), args.format),
    }
    return payload, None, None


def _cmd_faber_k(args):
    value = faber_polynomial(args.n, args.p, args.coeffs)
    payload = {
        "command": "faber-k",
        "n": args.n,
        "p": args.p,
        "value": _coeff_out(ExactComplex(value), args.format),
    }
    return payload, None, None


def _cmd_inverse(args):
    series = _series_from(args.coeffs)
    if args.order is not None:
        series = series.truncated(args.order)
    inverse = faber_inverse_coefficients(series)
    payload = {
        "command": "inverse",
        "order": inverse.order,
        "coefficients": [_coeff_out(c, args.format) for c in inverse.coeffs],
    }
    return payload, None, None


def _cmd_fib(args):
    if args.count < 0:
        raise ValueError(f"count must be nonnegative, got {args.count}")
    if args.count > MAX_FIB_COUNT:
        raise ValueError(f"count must be at most {MAX_FIB_COUNT}, got {args.count}")
    values = []
    a, b = 0, 1
    for _ in range(args.count + 1):
        values.append(a)
        a, b = b, a + b
    payload = {"command": "fib", "count": args.count, "values": values}
    rows = ({"n": k, "value": v} for k, v in enumerate(values))
    return payload, ["n", "value"], rows


def _cmd_ptilde(args):
    if args.order < 1:
        raise ValueError(f"coefficient table needs order >= 1, got {args.order}")
    coeffs = golden_coefficients(args.order)
    if args.format == "exact":
        table = [{"n": n, "exact": render_scalar(c)} for n, c in enumerate(coeffs, 1)]
    else:
        table = [{"n": n, "float": float(c)} for n, c in enumerate(coeffs, 1)]
    payload = {
        "command": "ptilde",
        "order": args.order,
        "format": args.format,
        "coefficients": table,
    }
    rows = (
        {"n": n, "exact": render_scalar(c), "float": repr(float(c))}
        for n, c in enumerate(coeffs, 1)
    )
    return payload, ["n", "exact", "float"], rows


def _cmd_ptilde_eval(args):
    mode, point = args.z
    if mode == "exact":
        value = golden_value_exact(point if not point.is_real else point.real)
        numeric = complex(ExactComplex(value))
        payload = {
            "command": "ptilde-eval",
            "z": render_scalar(point),
            "mode": "exact",
            "exact": render_scalar(value),
            "re": numeric.real,
            "im": numeric.imag,
        }
    else:
        value = golden_value(point, precision=args.precision)
        payload = {
            "command": "ptilde-eval",
            "z": repr(point),
            "mode": "numeric",
            "precision": args.precision,
            "re": value.real,
            "im": value.imag,
        }
    return payload, None, None


def _cmd_schwarz_solve(args):
    series = _series_from(args.coeffs)
    candidate = solve_schwarz(series)
    payload = {
        "command": "schwarz-solve",
        "order": series.order,
        "candidate": _candidate_payload(candidate, args.format),
    }
    return payload, None, None


def _cmd_tremblay(args):
    op = OperatorParams(args.mu, args.rho)
    series = _series_from(args.coeffs)
    image = apply_operator(series, op)
    payload = {
        "command": "tremblay",
        "mu": render_rational(op.mu),
        "rho": render_rational(op.rho),
        "in_definition_window": op.in_definition_window,
        "order": image.order,
        "coefficients": [_coeff_out(c, args.format) for c in image.coeffs],
    }
    return payload, None, None


def _cmd_class_lhs(args):
    params = ClassParams(args.gamma, OperatorParams(args.mu, args.rho))
    series = _series_from(args.coeffs)
    lhs = subordination_lhs(series, params)
    payload = {
        "command": "class-lhs",
        "gamma": render_scalar(params.gamma),
        "mu": render_rational(params.op.mu),
        "rho": render_rational(params.op.rho),
        "order": lhs.order,
        "coefficients": [_coeff_out(c, args.format) for c in lhs.coeffs],
    }
    return payload, None, None


def _cmd_witness(args):
    params = ClassParams(args.gamma, OperatorParams(args.mu, args.rho))
    series = _series_from(args.coeffs)
    report = membership_witness(series, params, order=args.order)
    payload = {
        "command": "witness",
        "order": report.order,
        "gamma": render_scalar(params.gamma),
        "mu": render_rational(params.op.mu),
        "rho": render_rational(params.op.rho),
        "in_definition_window": params.op.in_definition_window,
        "verdict": report.verdict,
        "map_candidate": _candidate_payload(report.map_candidate, args.format),
        "inverse_candidate": _candidate_payload(report.inverse_candidate, args.format),
    }
    return payload, None, None


def _cmd_bound(args):
    op = OperatorParams(args.mu, args.rho)
    reports: list[tuple[BoundReport, int | None]] = []
    if args.theorem == 1:
        if args.n is None:
            raise _UsageError("--theorem 1 needs a coefficient index --n")
        reports.append((bound_theorem1(args.n, args.gamma, op, args.precision), None))
    else:
        which = args.which or "both"
        if which in ("a2", "both"):
            reports.append((bound_a2(args.gamma, op, args.precision), 2))
        if which in ("a3", "both"):
            reports.append((bound_a3(args.gamma, op, args.precision), 3))
    payloads = [_bound_payload(r, args.precision) for r, _ in reports]
    if len(payloads) == 1:
        payload = {"command": "bound", "theorem": args.theorem, **payloads[0]}
    else:
        payload = {"command": "bound", "theorem": args.theorem, "bounds": payloads}
    rows = [_bound_csv_row(r, implied) for r, implied in reports]
    columns = ["n", "gamma", "mu", "rho", "branch", "exact", "float", "error_bound"]
    return payload, columns, rows


def _cmd_check_corollaries(args):
    picks = (1, 2, 3, 4) if args.which == "all" else (int(args.which),)
    grid = None
    if args.gammas is not None:
        ns = args.ns if args.ns is not None else [3, 4, 5]
        grid = [(g, n) for g in args.gammas for n in ns]
    all_rows = []
    overall = True
    for which in picks:
        rows, ok = corollary_check(which, grid=grid, precision=args.precision)
        all_rows.extend(rows)
        overall = overall and ok
    rendered = [
        {
            "corollary": row["corollary"],
            "bound": row["bound"],
            "gamma": render_scalar(row["gamma"]),
            "n": row["n"],
            "expected": row["expected"],
            "actual": row["actual"],
            "pass": row["pass"],
        }
        for row in all_rows
    ]
    payload = {
        "command": "check-corollaries",
        "which": list(picks),
        "rows": rendered,
        "all_pass": overall,
    }
    csv_rows = [
        {**row, "expected": repr(row["expected"]), "actual": repr(row["actual"])}
        for row in rendered
    ]
    columns = ["corollary", "bound", "gamma", "n", "expected", "actual", "pass"]
    return payload, columns, csv_rows


# -- parser assembly -----------------------------------------------------------


def _build_parser(default_precision: int) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("exact", "float"), default="exact",
        help="render coefficients exactly (default) or as floats",
    )
    common.add_argument(
        "--output", choices=("json", "csv"), default="json",
        help="payload format; csv only for tabular subcommands",
    )
    common.add_argument(
        "--precision", type=_arg_precision, default=default_precision,
        help=f"working precision in bits (default {default_precision}, env {ENV_PRECISION})",
    )

    parser = _ArgumentParser(
        prog="faberfib",
        description="Exact coefficient machinery for golden-ratio subordination classes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("revert", parents=[common], help="compositional inverse by triangular solve")
    p.add_argument("--coeffs", type=_arg_coeffs, required=True,
                   help="comma-separated series coefficients c_0,c_1,... with c_0=0, c_1=1")
    p.set_defaults(handler=_cmd_revert)

    p = sub.add_parser("bell", parents=[common], help="partition-sum polynomial value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coeffs", type=_arg_coeffs, required=True, help="inputs u_1,...,u_n")
    p.set_defaults(handler=_cmd_bell)

    p = sub.add_parser("faber-k", parents=[common],
                       help="coefficient of z^n in an integer power of a unit series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True, help="integer exponent, may be negative")
    p.add_argument("--coeffs", type=_arg_coeffs, required=True, help="inputs a_1,...,a_{n+1} with a_1=1")
    p.set_defaults(handler=_cmd_faber_k)

    p = sub.add_parser("inverse", parents=[common], help="compositional inverse by Lagrange inversion")
    p.add_argument("--coeffs", type=_arg_coeffs, required=True)
    p.add_argument("--order", type=int, default=None, help="truncate the input before inverting")
    p.set_defaults(handler=_cmd_inverse)

    p = sub.add_parser("fib", parents=[common], help="Fibonacci numbers F_0..F_count")
    p.add_argument("--count", type=int, required=True,
                   help=f"largest index, at most {MAX_FIB_COUNT}")
    p.set_defaults(handler=_cmd_fib)

    p = sub.add_parser("ptilde", parents=[common], help="generator Taylor coefficients")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=_cmd_ptilde)

    p = sub.add_parser("ptilde-eval", parents=[common], help="evaluate the generator at a point")
    p.add_argument("--z", type=_arg_point, required=True,
                   help="exact scalar text, a float, or 're,im'")
    p.set_defaults(handler=_cmd_ptilde_eval)

    p = sub.add_parser("schwarz-solve", parents=[common],
                       help="recover the formal disc map under the generator")
    p.add_argument("--coeffs", type=_arg_coeffs, required=True,
                   help="series with constant term exactly 1")
    p.set_defaults(handler=_cmd_schwarz_solve)

    p = sub.add_parser("tremblay", parents=[common], help="apply the fractional operator termwise")
    p.add_argument("--coeffs", type=_arg_coeffs, required=True, help="series with zero constant term")
    p.add_argument("--mu", type=_arg_rational, required=True)
    p.add_argument("--rho", type=_arg_rational, required=True)
    p.set_defaults(handler=_cmd_tremblay)

    p = sub.add_parser("class-lhs", parents=[common], help="class-defining series of a normalized map")
    p.add_argument("--coeffs", type=_arg_coeffs, required=True)
    p.add_argument("--gamma", type=_arg_scalar, required=True)
    p.add_argument("--mu", type=_arg_rational, required=True)
    p.add_argument("--rho", type=_arg_rational, required=True)
    p.set_defaults(handler=_cmd_class_lhs)

    p = sub.add_parser("witness", parents=[common],
                       help="two-sided membership test for a map and its inverse")
    p.add_argument("--coeffs", type=_arg_coeffs, required=True)
    p.add_argument("--gamma", type=_arg_scalar, required=True)
    p.add_argument("--mu", type=_arg_rational, required=True)
    p.add_argument("--rho", type=_arg_rational, required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("bound", parents=[common], help="evaluate a coefficient bound")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, default=None, help="coefficient index (theorem 1)")
    p.add_argument("--which", choices=("a2", "a3", "both"), default=None,
                   help="which theorem-2 bound (default both)")
    p.add_argument("--gamma", type=_arg_scalar, required=True)
    p.add_argument("--mu", type=_arg_rational, required=True)
    p.add_argument("--rho", type=_arg_rational, required=True)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("check-corollaries", parents=[common],
                       help="replay specializations against independent formulas")
    p.add_argument("--which", choices=("1", "2", "3", "4", "all"), default="all")
    p.add_argument("--gammas", type=_arg_coeffs, default=None,
                   help="comma-separated weights for the replay grid")
    p.add_argument("--ns", type=lambda s: [int(x) for x in s.split(",")], default=None,
                   help="comma-separated coefficient indices for the replay grid")
    p.set_defaults(handler=_cmd_check_corollaries)

    return parser


def _emit_csv(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def main(argv=None) -> int:
    try:
        default_precision = _default_precision()
    except ValueError as exc:
        _report_error("UsageError", str(exc))
        return 2
    parser = _build_parser(default_precision)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, columns, rows = args.handler(args)
        if args.output == "csv":
            if columns is None:
                raise _UsageError(f"no csv form for subcommand {args.subcommand!r}")
            text = _emit_csv(columns, rows)
        else:
            text = json.dumps(payload, indent=2) + "\n"
    except _UsageError as exc:
        _report_error("UsageError", str(exc))
        return 2
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        _report_error(type(exc).__name__, str(exc))
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
