"""Command line front end.

Every subcommand prints a single JSON document on stdout (or CSV rows
for the tabular commands when --output csv is given) and is
byte-deterministic for fixed inputs.  Exit codes: 0 on success, 2 for
usage errors (argparse's own convention: bad flags, unreadable or
non-finite arguments, csv on a non-tabular subcommand), 3 for domain
errors such as a pole, a zero weight, an index out of range or a size
past its budget; every error prints a structured JSON object on stderr
and nothing on stdout.

Each subcommand is declared once, as a row of `_SUBCOMMANDS`: its name,
its `_cmd_*` handler, its help text, its CSV columns (None when it has
no tabular form) and its argument specs.  A handler returns the payload
and the CSV rows; `main` puts the subcommand name first in the payload
under "command".  Handlers call the library through this module's
globals, so rebinding one of them (as a tracer does) reaches the CLI.
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
# largest `bell --n`: the partition sum's cost grows with the partition
# count, and at n = 40 its worst m takes about 0.6 s over Q(sqrt5, i)
MAX_BELL_N = 40
# largest `--precision` and `FABERFIB_PRECISION`: an enclosed bound's cost
# grows faster than the bit count, and at 32768 bits the third-coefficient
# bound at a complex weight takes about 0.45 s
_MAX_PRECISION_BITS = 32768


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
    if bits > _MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(f"precision must be at most {_MAX_PRECISION_BITS} bits")
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
    if bits > _MAX_PRECISION_BITS:
        raise ValueError(f"{ENV_PRECISION} must be at most {_MAX_PRECISION_BITS}, got {bits}")
    return bits


# -- rendering helpers ---------------------------------------------------------


def _series_from(values) -> TruncatedSeries:
    """A series of ExactComplex values over the smallest coefficient field."""
    if all(v.is_real for v in values):
        reals = [v.real for v in values]
        if all(r.is_rational for r in reals):
            return TruncatedSeries([r.to_fraction() for r in reals], Fraction)
        return TruncatedSeries(reals, QSqrt5)
    return TruncatedSeries(list(values), ExactComplex)


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


def _class_fields(op: OperatorParams, gamma=None) -> dict:
    """The weight (when given) and the operator orders as exact text."""
    fields = {} if gamma is None else {"gamma": render_scalar(gamma)}
    fields["mu"] = render_rational(op.mu)
    fields["rho"] = render_rational(op.rho)
    return fields


def _coefficients_out(series: TruncatedSeries, fmt: str) -> dict:
    return {"order": series.order, "coefficients": [_coeff_out(c, fmt) for c in series.coeffs]}


def _bound_payload(report: BoundReport, precision: int) -> dict:
    payload = {
        "kind": report.kind,
        **_class_fields(report.op, report.gamma),
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
        **_class_fields(report.op, report.gamma),
        "branch": report.branch or "",
        "exact": report.exact or "",
        "float": repr(report.value),
        "error_bound": repr(report.error),
    }


# -- subcommand handlers -------------------------------------------------------
# each returns (payload, csv_rows); `main` puts the subcommand name first in
# the payload, and csv_rows is None for subcommands with no csv columns in
# _SUBCOMMANDS


def _cmd_revert(args):
    return _coefficients_out(_series_from(args.coeffs).revert(), args.format), None


def _cmd_bell(args):
    if args.n > MAX_BELL_N:
        raise ValueError(f"n must be at most {MAX_BELL_N}, got {args.n}")
    value = partial_bell(args.n, args.m, args.coeffs)
    return {"n": args.n, "m": args.m, "value": _coeff_out(ExactComplex(value), args.format)}, None


def _cmd_faber_k(args):
    value = faber_polynomial(args.n, args.p, args.coeffs)
    return {"n": args.n, "p": args.p, "value": _coeff_out(ExactComplex(value), args.format)}, None


def _cmd_inverse(args):
    series = _series_from(args.coeffs)
    if args.order is not None:
        series = series.truncated(args.order)
    return _coefficients_out(faber_inverse_coefficients(series), args.format), None


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
    rows = ({"n": k, "value": v} for k, v in enumerate(values))
    return {"count": args.count, "values": values}, rows


def _cmd_ptilde(args):
    if args.order < 1:
        raise ValueError(f"coefficient table needs order >= 1, got {args.order}")
    coeffs = golden_coefficients(args.order)
    if args.format == "exact":
        table = [{"n": n, "exact": render_scalar(c)} for n, c in enumerate(coeffs, 1)]
    else:
        table = [{"n": n, "float": float(c)} for n, c in enumerate(coeffs, 1)]
    payload = {"order": args.order, "format": args.format, "coefficients": table}
    rows = (
        {"n": n, "exact": render_scalar(c), "float": repr(float(c))}
        for n, c in enumerate(coeffs, 1)
    )
    return payload, rows


def _cmd_ptilde_eval(args):
    mode, point = args.z
    if mode == "exact":
        value = golden_value_exact(point if not point.is_real else point.real)
        numeric = complex(ExactComplex(value))
        payload = {"z": render_scalar(point), "mode": "exact", "exact": render_scalar(value)}
    else:
        numeric = golden_value(point, precision=args.precision)
        payload = {"z": repr(point), "mode": "numeric", "precision": args.precision}
    return {**payload, "re": numeric.real, "im": numeric.imag}, None


def _cmd_schwarz_solve(args):
    series = _series_from(args.coeffs)
    candidate = solve_schwarz(series)
    return {"order": series.order, "candidate": _candidate_payload(candidate, args.format)}, None


def _cmd_tremblay(args):
    op = OperatorParams(args.mu, args.rho)
    image = apply_operator(_series_from(args.coeffs), op)
    payload = {
        **_class_fields(op),
        "in_definition_window": op.in_definition_window,
        **_coefficients_out(image, args.format),
    }
    return payload, None


def _cmd_class_lhs(args):
    params = ClassParams(args.gamma, OperatorParams(args.mu, args.rho))
    lhs = subordination_lhs(_series_from(args.coeffs), params)
    return {**_class_fields(params.op, params.gamma), **_coefficients_out(lhs, args.format)}, None


def _cmd_witness(args):
    params = ClassParams(args.gamma, OperatorParams(args.mu, args.rho))
    report = membership_witness(_series_from(args.coeffs), params, order=args.order)
    payload = {
        "order": report.order,
        **_class_fields(params.op, params.gamma),
        "in_definition_window": params.op.in_definition_window,
        "verdict": report.verdict,
        "map_candidate": _candidate_payload(report.map_candidate, args.format),
        "inverse_candidate": _candidate_payload(report.inverse_candidate, args.format),
    }
    return payload, None


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
        payload = {"theorem": args.theorem, **payloads[0]}
    else:
        payload = {"theorem": args.theorem, "bounds": payloads}
    return payload, [_bound_csv_row(r, implied) for r, implied in reports]


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
    rendered = [{**row, "gamma": render_scalar(row["gamma"])} for row in all_rows]
    csv_rows = [
        {**row, "expected": repr(row["expected"]), "actual": repr(row["actual"])}
        for row in rendered
    ]
    return {"which": list(picks), "rows": rendered, "all_pass": overall}, csv_rows


# -- subcommand table ----------------------------------------------------------
# argument specs are (flag, add_argument keywords); the ones several
# subcommands share are built once here


def _coeffs(help_text=None):
    return "--coeffs", {"type": _arg_coeffs, "required": True, "help": help_text}


_REQUIRED_N = ("--n", {"type": int, "required": True})
_GAMMA = ("--gamma", {"type": _arg_scalar, "required": True})
_MU_RHO = (("--mu", {"type": _arg_rational, "required": True}),
           ("--rho", {"type": _arg_rational, "required": True}))

# (name, handler, help, csv columns or None, argument specs)
_SUBCOMMANDS = (
    ("revert", _cmd_revert, "compositional inverse by triangular solve", None, (
        _coeffs("comma-separated series coefficients c_0,c_1,... with c_0=0, c_1=1"),
    )),
    ("bell", _cmd_bell, "partition-sum polynomial value", None, (
        _REQUIRED_N,
        ("--m", {"type": int, "required": True}),
        _coeffs("inputs u_1,...,u_n"),
    )),
    ("faber-k", _cmd_faber_k,
     "coefficient of z^n in an integer power of a unit series", None, (
        _REQUIRED_N,
        ("--p", {"type": int, "required": True, "help": "integer exponent, may be negative"}),
        _coeffs("inputs a_1,...,a_{n+1} with a_1=1"),
    )),
    ("inverse", _cmd_inverse, "compositional inverse by Lagrange inversion", None, (
        _coeffs(),
        ("--order", {"type": int, "default": None, "help": "truncate the input before inverting"}),
    )),
    ("fib", _cmd_fib, "Fibonacci numbers F_0..F_count", ("n", "value"), (
        ("--count", {"type": int, "required": True,
                     "help": f"largest index, at most {MAX_FIB_COUNT}"}),
    )),
    ("ptilde", _cmd_ptilde, "generator Taylor coefficients", ("n", "exact", "float"), (
        ("--order", {"type": int, "required": True}),
    )),
    ("ptilde-eval", _cmd_ptilde_eval, "evaluate the generator at a point", None, (
        ("--z", {"type": _arg_point, "required": True,
                 "help": "exact scalar text, a float, or 're,im'"}),
    )),
    ("schwarz-solve", _cmd_schwarz_solve,
     "recover the formal disc map under the generator", None, (
        _coeffs("series with constant term exactly 1"),
    )),
    ("tremblay", _cmd_tremblay, "apply the fractional operator termwise", None, (
        _coeffs("series with zero constant term"),
        *_MU_RHO,
    )),
    ("class-lhs", _cmd_class_lhs, "class-defining series of a normalized map", None, (
        _coeffs(),
        _GAMMA,
        *_MU_RHO,
    )),
    ("witness", _cmd_witness, "two-sided membership test for a map and its inverse", None, (
        _coeffs(),
        _GAMMA,
        *_MU_RHO,
        ("--order", {"type": int, "default": None}),
    )),
    ("bound", _cmd_bound, "evaluate a coefficient bound",
     ("n", "gamma", "mu", "rho", "branch", "exact", "float", "error_bound"), (
        ("--theorem", {"type": int, "choices": (1, 2), "required": True}),
        ("--n", {"type": int, "default": None, "help": "coefficient index (theorem 1)"}),
        ("--which", {"choices": ("a2", "a3", "both"), "default": None,
                     "help": "which theorem-2 bound (default both)"}),
        _GAMMA,
        *_MU_RHO,
    )),
    ("check-corollaries", _cmd_check_corollaries,
     "replay specializations against independent formulas",
     ("corollary", "bound", "gamma", "n", "expected", "actual", "pass"), (
        ("--which", {"choices": ("1", "2", "3", "4", "all"), "default": "all"}),
        ("--gammas", {"type": _arg_coeffs, "default": None,
                      "help": "comma-separated weights for the replay grid"}),
        ("--ns", {"type": lambda s: [int(x) for x in s.split(",")], "default": None,
                  "help": "comma-separated coefficient indices for the replay grid"}),
    )),
)


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
    for name, handler, help_text, columns, specs in _SUBCOMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in specs:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, csv_columns=columns)
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
        payload, rows = args.handler(args)
        if args.output == "csv":
            if args.csv_columns is None:
                raise _UsageError(f"no csv form for subcommand {args.subcommand!r}")
            text = _emit_csv(args.csv_columns, rows)
        else:
            text = json.dumps({"command": args.subcommand, **payload}, indent=2) + "\n"
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
