"""Independent checks of every op's output, run outside the timed region.

Each checker returns a list of problems (empty when the output is right).
The checks use a different route from the one the op took:

- witness: both candidates are pushed back through the generator by
  series division (`golden_series(N-1).compose(w)`) and compared with the
  class series coded here from its formula; the inverse is recomputed by
  `revert` and compared with the Faber route; the disc-map flags and the
  verdict are re-decided with sign tests written here.
- invert: the two routes must agree exactly and `f.compose(g)` must be z.
- cli: exit code and stdout/stderr split follow the README output
  contract; stdout is strict JSON (no NaN or Infinity) or CSV with the
  documented columns; exact strings reparse to the library's own result;
  floats agree with formulas coded here in floating point or Decimal.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from faberfib import (
    ExactComplex,
    NormalizedSeries,
    QSqrt5,
    TruncatedSeries,
    faber_inverse_coefficients,
    golden_series,
    golden_value_exact,
    parse_scalar,
)

CONSISTENT_PREFIX = "consistent-to-order-"
VIOLATED = "necessary-condition-violated"
T = (math.sqrt(5) - 1) / 2  # |tau|
TAU_C = complex((1 - math.sqrt(5)) / 2)
REL = 1e-12
FLAG_KEYS = ("c1_within_unit", "c2_within_margin", "c1_on_boundary", "c2_on_boundary")


# -- exact helpers written independently of the library's ordering code ---------


def q5_parts(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, QSqrt5):
        return x.rational_part, x.radical_part
    return Fraction(x), Fraction(0)


def q5_sign(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt5, decided by comparing a**2 with 5*b**2."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    diff = a * a - 5 * b * b
    return sa if diff > 0 else -sa


def q5_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c + 5 * b * d, a * d + b * c


def abs_sq(z: ExactComplex) -> tuple[Fraction, Fraction]:
    re, im = q5_parts(z.real), q5_parts(z.imag)
    rr, ii = q5_mul(re, re), q5_mul(im, im)
    return rr[0] + ii[0], rr[1] + ii[1]


def q5_decimal(a: Fraction, b: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(a.numerator) / Decimal(a.denominator)
        if b:
            value += Decimal(b.numerator) / Decimal(b.denominator) * Decimal(5).sqrt()
        return value


def exact_complex_float(z: ExactComplex) -> complex:
    return complex(float(q5_decimal(*q5_parts(z.real))), float(q5_decimal(*q5_parts(z.imag))))


def close(expected: float, actual: float, slack: float = 0.0) -> bool:
    return abs(expected - actual) <= slack + REL * max(1.0, abs(expected))


def generator_float(z: complex) -> complex:
    return (1 + TAU_C ** 2 * z * z) / (1 - TAU_C * z - TAU_C ** 2 * z * z)


def fib_list(count: int) -> list[int]:
    out = [0, 1]
    while len(out) <= count:
        out.append(out[-1] + out[-2])
    return out[: count + 1]


def golden_coefficient_parts(n: int) -> tuple[Fraction, Fraction]:
    """tau**n times its Fibonacci weight, as (a, b) meaning a + b*sqrt5."""
    f = fib_list(n + 2)
    weight = {1: f[0] + f[2], 2: f[1] + f[3]}.get(n) or f[n - 3] + f[n - 2] + f[n - 1] + f[n]
    power = (Fraction(1), Fraction(0))
    for _ in range(n):
        power = q5_mul(power, (Fraction(1, 2), Fraction(-1, 2)))
    return weight * power[0], weight * power[1]


# -- witness ---------------------------------------------------------------------


def class_series(h_coeffs, gamma: ExactComplex, mu: Fraction, rho: Fraction) -> list:
    """1 + sum_n (n/gamma) prod_{k<n} (mu+k)/(rho+k) h_n z^(n-1), from the formula."""
    out = [ExactComplex(1)]
    ratio = Fraction(1)
    for n in range(2, len(h_coeffs)):
        ratio *= (mu + n - 1) / (rho + n - 1)
        out.append(ExactComplex(ratio * n) * ExactComplex(h_coeffs[n]) / gamma)
    return out


def candidate_flags(coeffs) -> dict:
    """The two disc-map necessary conditions, decided with this module's sign test."""
    flags = {"c1_within_unit": True, "c2_within_margin": True,
             "c1_on_boundary": False, "c2_on_boundary": False}
    if coeffs:
        a, b = abs_sq(coeffs[0])
        slack = q5_sign(1 - a, -b)
        flags["c1_within_unit"] = slack >= 0
        flags["c1_on_boundary"] = slack == 0
    if len(coeffs) >= 2:
        margin = (1 - abs_sq(coeffs[0])[0], -abs_sq(coeffs[0])[1])
        if q5_sign(*margin) < 0:
            flags["c2_within_margin"] = False
        else:
            m2 = q5_mul(margin, margin)
            c2 = abs_sq(coeffs[1])
            gap = q5_sign(m2[0] - c2[0], m2[1] - c2[1])
            flags["c2_within_margin"] = gap >= 0
            flags["c2_on_boundary"] = gap == 0
    return flags


def check_membership(f, gamma, mu, rho, order, candidates, verdict) -> list[str]:
    """`candidates` maps "map"/"inverse" to (coefficients, flags dict)."""
    problems = []
    inverse = f.revert()
    if faber_inverse_coefficients(f) != inverse:
        problems.append("revert and faber_inverse_coefficients disagree")
    generator = golden_series(order - 1)
    feasible = True
    for side, h in (("map", f), ("inverse", inverse)):
        coeffs, flags = candidates[side]
        if len(coeffs) != order - 1:
            problems.append(f"{side} candidate has {len(coeffs)} coefficients, expected {order - 1}")
            continue
        w = TruncatedSeries([ExactComplex(0), *coeffs], ExactComplex)
        if list(generator.compose(w).coeffs) != class_series(h.coeffs, gamma, mu, rho):
            problems.append(f"{side} candidate does not map back to the class series")
        expected = candidate_flags(coeffs)
        if flags != expected:
            problems.append(f"{side} flags {flags} != {expected}")
        feasible = feasible and expected["c1_within_unit"] and expected["c2_within_margin"]
    want = f"{CONSISTENT_PREFIX}{order}" if feasible else VIOLATED
    if verdict != want:
        problems.append(f"verdict {verdict!r}, expected {want!r}")
    return problems


def check_witness(op, report) -> list[str]:
    f, params = op.inputs
    s = op.spec
    if report.order != s["order"]:
        return [f"report order {report.order}, expected {s['order']}"]
    candidates = {
        side: (list(cand.coeffs), {k: getattr(cand, k) for k in FLAG_KEYS})
        for side, cand in (("map", report.map_candidate), ("inverse", report.inverse_candidate))
    }
    return check_membership(f, params.gamma, s["mu"], s["rho"], s["order"], candidates, report.verdict)


# -- invert ----------------------------------------------------------------------


def check_invert(op, result) -> list[str]:
    (f,) = op.inputs
    problems = []
    if result.by_revert != result.by_faber:
        problems.append("revert and faber_inverse_coefficients disagree")
    identity = [0, 1] + [0] * (f.order - 1)
    if list(f.compose(result.by_revert).coeffs) != identity:
        problems.append("f(g(z)) is not z")
    return problems


# -- cli ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def read_csv(text: str, columns: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != columns:
        raise ValueError(f"csv columns {reader.fieldnames}, expected {columns}")
    return list(reader)


def gamma_complex(spec) -> complex:
    re, im = spec["gamma"]
    return complex(float(re), float(im))


def rising(x: Fraction, y: Fraction, n: int) -> Fraction:
    value = Fraction(1)
    for k in range(n):
        value *= (x + k) / (y + k)
    return value


def theorem1_float(g: complex, mu, rho, n) -> float:
    return abs(g) * T * float(rising(rho + 1, mu + 1, n - 1)) / n


def branch_floats(g: complex, mu, rho) -> dict:
    """Both branches of the a2 and a3 bounds in floating point."""
    p = 3 * float((mu + 1) * (mu + 2) / ((rho + 1) * (rho + 2)))
    q = 4 * float((mu + 1) ** 2 / (rho + 1) ** 2)
    ag = abs(g)
    denom = abs(g * p - 3 * q) * T + q
    return {
        "a2": (ag * T / math.sqrt(denom), T * math.sqrt(3 * ag / p)),
        "a3": (3 * ag * T * T / p, (ag * T / p) * (1 + (p * ag * T - q) / denom)),
    }


def exact_bound_value(text: str) -> float:
    """Float value of a bound's exact carrier, 'x' or 'sqrt(x)' with x in Q(sqrt5)."""
    root = text.startswith("sqrt(") and text.endswith(")")
    value = parse_scalar(text[5:-1] if root else text)
    if not value.is_real:
        raise ValueError(f"exact bound {text!r} is not real")
    dec = q5_decimal(*q5_parts(value.real))
    if root:
        with localcontext() as ctx:
            ctx.prec = 60
            dec = dec.sqrt()
    return float(dec)


def theorem1_exact(spec):
    """The exact Theorem 1 carrier, rebuilt from the formula in Q(sqrt5)."""
    re, im = spec["gamma"]
    g2 = re * re + im * im
    ratio = rising(spec["rho"] + 1, spec["mu"] + 1, spec["n"] - 1) / spec["n"]
    abs_tau = (Fraction(-1, 2), Fraction(1, 2))
    num, den = g2.numerator, g2.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return ExactComplex(QSqrt5(*q5_mul((Fraction(rn, rd) * ratio, Fraction(0)), abs_tau)))
    sq = q5_mul(abs_tau, abs_tau)
    return ("sqrt", ExactComplex(QSqrt5(g2 * ratio * ratio * sq[0], g2 * ratio * ratio * sq[1])))


def _check_bound_entry(entry, spec, which, problems):
    g = gamma_complex(spec)
    if parse_scalar(entry["gamma"]) != ExactComplex(*spec["gamma"]):
        problems.append(f"gamma {entry['gamma']!r} does not reparse to the input")
    err = entry["error_bound"]
    if not (isinstance(err, float) and err >= 0):
        problems.append(f"error_bound {err!r} is not a nonnegative float")
        return
    if entry["exact"] is not None and not close(exact_bound_value(entry["exact"]), entry["bound_float"], err):
        problems.append(f"exact {entry['exact']!r} disagrees with bound_float {entry['bound_float']!r}")
    if which == "n":
        expected = theorem1_float(g, spec["mu"], spec["rho"], spec["n"])
        if not close(expected, entry["bound_float"], err):
            problems.append(f"theorem 1 bound {entry['bound_float']!r}, formula gives {expected!r}")
        want = theorem1_exact(spec)
        text = entry["exact"]
        got = ("sqrt", parse_scalar(text[5:-1])) if text.startswith("sqrt(") else parse_scalar(text)
        if got != want:
            problems.append(f"theorem 1 exact {text!r} does not reparse to the formula's value")
        return
    first, second = branch_floats(g, spec["mu"], spec["rho"])[which]
    branches = entry["branches"]
    for b, expected in zip(branches, (first, second)):
        if not close(expected, b["float"], b["error_bound"]):
            problems.append(f"{which} {b['label']} branch {b['float']!r}, formula gives {expected!r}")
    if abs(first - second) > 1e-9 * max(first, second):
        want = "first" if first < second else "second"
        if entry["branch"] != want:
            problems.append(f"{which} picked branch {entry['branch']!r}, expected {want!r}")
    if not close(min(first, second), entry["bound_float"], err):
        problems.append(f"{which} bound {entry['bound_float']!r}, formula gives {min(first, second)!r}")


BOUND_COLUMNS = ["n", "gamma", "mu", "rho", "branch", "exact", "float", "error_bound"]


def check_bound(spec, stdout, problems):
    if spec["output"] == "csv":
        rows = read_csv(stdout, BOUND_COLUMNS)
        names = ["a2", "a3"]
        if [int(r["n"]) for r in rows] != [2, 3]:
            problems.append(f"bound csv rows for n={[r['n'] for r in rows]}, expected [2, 3]")
        for row, which in zip(rows, names):
            first, second = branch_floats(gamma_complex(spec), spec["mu"], spec["rho"])[which]
            err = float(row["error_bound"])
            if not close(min(first, second), float(row["float"]), err):
                problems.append(f"csv {which} float {row['float']}, formula gives {min(first, second)!r}")
            if row["exact"] and not close(exact_bound_value(row["exact"]), float(row["float"]), err):
                problems.append(f"csv exact {row['exact']!r} disagrees with its float")
        return
    payload = strict_json(stdout)
    if spec["kind"] == "bound1":
        _check_bound_entry(payload, spec, "n", problems)
        return
    names = ["a2", "a3"] if spec["which"] == "both" else [spec["which"]]
    entries = payload["bounds"] if spec["which"] == "both" else [payload]
    if len(entries) != len(names):
        problems.append(f"{len(entries)} bounds reported, expected {len(names)}")
    for entry, which in zip(entries, names):
        _check_bound_entry(entry, spec, which, problems)


def check_eval(spec, stdout, problems):
    payload = strict_json(stdout)
    if spec["kind"] == "eval-exact":
        a, b, c = spec["point"]
        point = ExactComplex(QSqrt5(a, b), c)
        if parse_scalar(payload["z"]) != point:
            problems.append(f"z {payload['z']!r} does not reparse to the input")
        library = golden_value_exact(point if c else point.real)
        if parse_scalar(payload["exact"]) != ExactComplex(library):
            problems.append(f"exact {payload['exact']!r} does not reparse to golden_value_exact")
        z = complex(float(q5_decimal(a, b)), float(c))
    else:
        z = spec["point"]
        if payload["precision"] != spec["precision"]:
            problems.append(f"precision {payload['precision']}, requested {spec['precision']}")
    expected = generator_float(z)
    if not (close(expected.real, payload["re"], 1e-15) and close(expected.imag, payload["im"], 1e-15)):
        problems.append(f"value {payload['re']!r}+{payload['im']!r}i, formula gives {expected!r}")


def check_fib(spec, stdout, problems):
    want = fib_list(spec["count"])
    if spec["output"] == "csv":
        rows = read_csv(stdout, ["n", "value"])
        got = [int(r["value"]) for r in rows]
        if [int(r["n"]) for r in rows] != list(range(len(rows))):
            problems.append("fib csv indices are not 0..count")
    else:
        got = strict_json(stdout)["values"]
    if got != want:
        problems.append(f"fib values differ from F_0..F_{spec['count']}")


def _check_coefficient(n, exact_text, flt, problems):
    a, b = golden_coefficient_parts(n)
    if exact_text is not None and parse_scalar(exact_text) != ExactComplex(QSqrt5(a, b)):
        problems.append(f"ptilde n={n} exact {exact_text!r} differs from the Fibonacci form")
    if flt is not None:
        want = float(q5_decimal(a, b))
        if abs(want - flt) > 2 * math.ulp(want):
            problems.append(f"ptilde n={n} float {flt!r}, expected {want!r}")


def check_ptilde(spec, stdout, problems):
    if spec["output"] == "csv":
        rows = read_csv(stdout, ["n", "exact", "float"])
        entries = [(int(r["n"]), r["exact"], float(r["float"])) for r in rows]
    else:
        payload = strict_json(stdout)
        entries = [(e["n"], e.get("exact"), e.get("float")) for e in payload["coefficients"]]
        if spec["format"] == "exact" and any(e[1] is None for e in entries):
            problems.append("exact ptilde table lacks exact strings")
    if [e[0] for e in entries] != list(range(1, spec["order"] + 1)):
        problems.append(f"ptilde rows {[e[0] for e in entries]}, expected 1..{spec['order']}")
    for n, exact_text, flt in entries:
        _check_coefficient(n, exact_text, flt, problems)


def check_corollaries(spec, stdout, problems):
    payload = strict_json(stdout)
    if payload["which"] != [1, 2, 3, 4] or not payload["all_pass"]:
        problems.append(f"corollaries which={payload['which']} all_pass={payload['all_pass']}")
    if not payload["rows"]:
        problems.append("no corollary rows")
    for row in payload["rows"]:
        g = exact_complex_float(parse_scalar(row["gamma"]))
        one = Fraction(1)
        if row["bound"] == "a_n":
            expected = theorem1_float(g, one, one, row["n"])
        else:
            expected = min(branch_floats(g, one, one)["a2" if row["bound"] == "a_2" else "a3"])
        if not (row["pass"] and close(expected, row["actual"])):
            problems.append(f"corollary {row['corollary']} {row['bound']} at {row['gamma']}: "
                            f"{row['actual']!r}, formula gives {expected!r}")


def check_cli_witness(spec, stdout, problems):
    payload = strict_json(stdout)
    f = NormalizedSeries.from_upper(spec["upper"])
    candidates = {}
    for side, key in (("map", "map_candidate"), ("inverse", "inverse_candidate")):
        cand = payload[key]
        coeffs = [parse_scalar(c) for c in cand["coefficients"]]
        candidates[side] = (coeffs, {k: cand[k] for k in FLAG_KEYS})
    gamma = ExactComplex(*spec["gamma"])
    problems.extend(check_membership(f, gamma, spec["mu"], spec["rho"], spec["order"],
                                     candidates, payload["verdict"]))


CLI_CHECKS = {
    "bound1": check_bound, "bound2": check_bound, "bound-csv": check_bound,
    "eval-exact": check_eval, "eval-numeric": check_eval,
    "fib": check_fib, "fib-csv": check_fib,
    "ptilde": check_ptilde, "ptilde-table": check_ptilde,
    "corollaries": check_corollaries, "witness": check_cli_witness,
}


def check_contract(result, expected_exit: int) -> list[str]:
    """Exit code and stream split promised by the README output contract."""
    if result.raised is not None:
        return [f"raised {result.raised}"]
    if result.exit_code != expected_exit:
        return [f"exit {result.exit_code}, expected {expected_exit}"]
    if expected_exit == 0:
        problems = [] if result.stdout else ["empty stdout"]
        if result.stderr:
            problems.append("stderr not empty on success")
        return problems
    problems = [] if not result.stdout else ["stdout not empty on failure"]
    if not result.stderr or "Traceback" in result.stderr:
        problems.append("stderr lacks a clean error message")
    if expected_exit == 3:
        try:
            error = strict_json(result.stderr)["error"]
            if not (isinstance(error["type"], str) and isinstance(error["message"], str)):
                problems.append("stderr error object lacks type/message strings")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"stderr is not the JSON error object: {exc}")
    return problems


def check_cli(op, result) -> list[str]:
    spec = op.spec
    problems = check_contract(result, spec["exit"])
    if problems or spec["exit"] != 0:
        return problems
    try:
        CLI_CHECKS[spec["kind"]](spec, result.stdout, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


CHECKS = {"witness": check_witness, "invert": check_invert, "cli": check_cli}
