"""Seeded inputs and op runners for the three benchmark workloads.

Each workload yields an endless, deterministic stream of ops from its
seed.  The stream is stratified: op i takes its order (or request kind)
and its input class from fixed rotations of i, and only the numbers
inside an input are random, so every stretch of the stream has the same
mix and a run's medians move little from seed to seed.

- `witness` runs `membership_witness` at orders 6, 12, 8, 6, 12, 10.  The
  Schwarz solve, the partition sums and the QSqrt5/ExactComplex ring do
  the work; the series products do none.
- `invert` runs `revert` and `faber_inverse_coefficients` on rational
  series at orders 8, 12, 16 and 20, one input in five sparse.  Only
  Fraction arithmetic, series composition and partition sums are used.
- `cli` calls `faberfib.cli.main` in-process on a fixed 40-request mix of
  single-value requests (bound, ptilde-eval, fib), table or composite
  requests (ptilde, check-corollaries, witness) and documented exit-2 and
  exit-3 requests.  Bounds, intervals, scalar parsing and rendering,
  argparse and JSON do the work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import faberfib
import faberfib.cli
from faberfib import ClassParams, ExactComplex, NormalizedSeries, OperatorParams

GAMMA_KINDS = ("real", "rational-modulus", "irrational-modulus")
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


@dataclass
class Op:
    """One benchmark operation: its inputs, what a checker needs, its class."""

    index: int
    latency_class: str  # "small", "middle" or "large"
    label: str  # order for witness/invert, request kind for cli
    inputs: tuple
    spec: dict = field(default_factory=dict)


# -- random exact inputs --------------------------------------------------------


def rand_rational(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def rand_nonzero(rng: random.Random, top: int = 9) -> Fraction:
    value = Fraction(0)
    while not value:
        value = rand_rational(rng, top)
    return value


def _is_rational_square(q: Fraction) -> bool:
    n, d = q.numerator, q.denominator
    return all(math.isqrt(v) ** 2 == v for v in (n, d))


def rand_gamma(rng: random.Random, kind: str) -> tuple[Fraction, Fraction]:
    """A nonzero weight (re, im) of the named kind."""
    if kind == "real":
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 4)), Fraction(0)
    if kind == "rational-modulus":
        a, b, c = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            a, b = b, a
        scale = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        return (
            scale * Fraction(rng.choice((-1, 1)) * a, c),
            scale * Fraction(rng.choice((-1, 1)) * b, c),
        )
    while True:
        re, im = rand_nonzero(rng, 6), rand_nonzero(rng, 6)
        if not _is_rational_square(re * re + im * im):
            return re, im


def rand_quarter(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 8), 4)


def scalar_text(re: Fraction, im: Fraction = Fraction(0)) -> str:
    """Input text for a complex rational, in the documented scalar syntax."""
    if not im:
        return str(re)
    imag = f"{abs(im)}*i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return f"{re} {'+' if im > 0 else '-'} {imag}"


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def order_class(order: int, orders: tuple) -> str:
    """Latency class of an order: the lowest is small, the highest large."""
    if order == orders[0]:
        return "small"
    return "large" if order == orders[-1] else "middle"


# -- witness -------------------------------------------------------------------

WITNESS_ORDERS = (6, 8, 10, 12)
WITNESS_SCALES = (Fraction(1, 100), Fraction(1, 10), Fraction(1))
# the lowest and highest orders come twice a cycle, so that their latency
# classes get enough samples for a tail within one run
WITNESS_CYCLE = (6, 12, 8, 6, 12, 10)


def _witness_op(index: int, rng: random.Random, order: int, scale: Fraction, kind: str) -> Op:
    upper = [scale * rand_rational(rng) for _ in range(order - 1)]
    f = NormalizedSeries.from_upper(upper)
    re, im = rand_gamma(rng, kind)
    mu, rho = rand_quarter(rng), rand_quarter(rng)
    params = ClassParams(ExactComplex(re, im), OperatorParams(mu, rho))
    spec = {"gamma": (re, im), "mu": mu, "rho": rho, "order": order}
    return Op(index, order_class(order, WITNESS_ORDERS), str(order), (f, params), spec)


def witness_ops(seed: int):
    rng = _rng(seed, "witness")
    for i in itertools.count():
        order = WITNESS_CYCLE[i % len(WITNESS_CYCLE)]
        scale = WITNESS_SCALES[(i // len(WITNESS_CYCLE)) % 3]
        kind = GAMMA_KINDS[(i // (3 * len(WITNESS_CYCLE))) % 3]
        yield _witness_op(i, rng, order, scale, kind)


# entry points are looked up on the package at call time, so that a traced
# run sees the wrappers installed there


def run_witness(op: Op):
    f, params = op.inputs
    return faberfib.membership_witness(f, params)


# -- invert --------------------------------------------------------------------

INVERT_ORDERS = (8, 12, 16, 20)


def invert_ops(seed: int):
    rng = _rng(seed, "invert")
    for i in itertools.count():
        order = INVERT_ORDERS[i % 4]
        sparse = (i // 4) % 5 == 0
        if sparse:
            # z + a_k z^k + a_N z^N: every other middle coefficient is zero
            upper = [Fraction(0)] * (order - 1)
            upper[-1] = rand_nonzero(rng, 40)
            upper[rng.randrange(order - 2)] = rand_nonzero(rng, 40)
        else:
            upper = [rand_rational(rng) for _ in range(order - 1)]
        f = NormalizedSeries.from_upper(upper)
        yield Op(i, order_class(order, INVERT_ORDERS), str(order), (f,), {"sparse": sparse, "order": order})


@dataclass
class InvertResult:
    by_revert: NormalizedSeries
    by_faber: NormalizedSeries
    stage_s: dict = field(compare=False)  # seconds per route, for the growth table


def run_invert(op: Op) -> InvertResult:
    (f,) = op.inputs
    t0 = perf_counter()
    by_revert = f.revert()
    t1 = perf_counter()
    by_faber = faberfib.faber_inverse_coefficients(f)
    t2 = perf_counter()
    return InvertResult(by_revert, by_faber, {"revert": t1 - t0, "faber_inverse_coefficients": t2 - t1})


# -- cli -------------------------------------------------------------------------

# one 40-request cycle; large requests are spread through it
CLI_CYCLE = (
    "bound1", "eval-exact", "bound2", "fib", "witness", "eval-numeric", "bound1", "bound2",
    "eval-exact", "fib", "ptilde", "bound1", "eval-numeric", "bound2", "error", "fib",
    "bound1", "witness", "eval-exact", "bound-csv", "bound2", "corollaries", "eval-numeric",
    "fib", "bound1", "bound2", "eval-exact", "witness", "fib-csv", "bound1", "eval-numeric",
    "bound2", "ptilde-table", "fib", "error", "bound1", "eval-exact", "witness",
    "eval-numeric", "bound2",
)
CLI_LARGE = ("ptilde", "check-corollaries", "witness")
PRECISIONS = (53, 128, 256)

# documented failure classes: (argv, exit code the README promises)
CLI_ERRORS = (
    (["ptilde-eval", "--z=-1"], 3),
    (["ptilde-eval", "--z", "1/2", "--output", "csv"], 2),
    (["bound", "--theorem", "1", "--n", "3", "--gamma=0", "--mu", "1", "--rho", "1"], 3),
    (["bound", "--theorem", "1", "--gamma", "1", "--mu", "1", "--rho", "1"], 2),
    (["bound", "--theorem", "1", "--n", "2", "--gamma", "1", "--mu", "1", "--rho", "1"], 3),
    (["bound", "--theorem", "3", "--gamma", "1", "--mu", "1", "--rho", "1"], 2),
    (["bound", "--theorem", "2", "--gamma", "1", "--mu", "0", "--rho", "1"], 3),
    (["fib", "--count=-1"], 3),
    (["fib", "--count", "5", "--precision", "40"], 2),
    (["ptilde", "--order", "0"], 3),
    (["witness", "--coeffs", "0,1,1/2", "--gamma", "1", "--mu", "1", "--rho", "1"], 3),
    (["tremblay", "--coeffs", "0,1,1/2", "--mu", "1", "--rho", "1", "--output", "csv"], 2),
)

# ROADMAP item 5 inputs; they are probed once per run, outside the mix
KNOWN_DEFECTS = (
    (["ptilde-eval", "--z", "1/0"], "argument converters catch ValueError only, so 1/0 escapes as ZeroDivisionError"),
    (["revert", "--coeffs", "0,1,1/0"], "argument converters catch ValueError only, so 1/0 escapes as ZeroDivisionError"),
    (["ptilde-eval", "--z", "nan"], "numeric point accepts nan and prints bare NaN, which is not JSON"),
    (["ptilde-eval", "--z", "inf"], "numeric point accepts inf and prints a non-finite value"),
    (["ptilde-eval", "--z", "1e400,0"], "numeric point overflows to inf and prints a non-finite value"),
)


def _rand_point(rng: random.Random, real_sqrt5: bool):
    """An exact evaluation point (a, b, c) meaning a + b*sqrt5 + c*i, away from the poles."""
    while True:
        a = Fraction(rng.randint(-6, 6), rng.choice((4, 8, 16)))
        if real_sqrt5:
            b, c = Fraction(rng.randint(-3, 3), rng.choice((8, 16))), Fraction(0)
        else:
            b, c = Fraction(0), Fraction(rng.randint(-6, 6), rng.choice((4, 8, 16)))
        z = complex(float(a) + float(b) * 5 ** 0.5, float(c))
        tau = (1 - 5 ** 0.5) / 2
        if abs(1 - tau * z - tau * tau * z * z) > 0.2:
            return a, b, c


def _cli_request(kind: str, rng: random.Random, turn: int):
    """(argv, spec) for one request of the given kind; `turn` rotates its sub-case."""
    spec: dict = {"kind": kind, "exit": 0}
    if kind in ("bound1", "bound2", "bound-csv"):
        gkind = GAMMA_KINDS[turn % 3]
        re, im = rand_gamma(rng, gkind)
        mu, rho = rand_quarter(rng), rand_quarter(rng)
        precision = PRECISIONS[(turn // 3) % 3]
        argv = ["bound", "--theorem", "1" if kind == "bound1" else "2"]
        spec.update(gamma=(re, im), mu=mu, rho=rho, precision=precision, output="json")
        if kind == "bound1":
            n = rng.randint(3, 9)
            argv += ["--n", str(n)]
            spec["n"] = n
        else:
            which = ("both", "a2", "a3")[turn % 3] if kind == "bound2" else "both"
            if which != "both":
                argv += ["--which", which]
            spec["which"] = which
        argv += [f"--gamma={scalar_text(re, im)}", f"--mu={mu}", f"--rho={rho}",
                 "--precision", str(precision)]
        if kind == "bound-csv":
            argv += ["--output", "csv"]
            spec["output"] = "csv"
        return argv, spec
    if kind == "eval-exact":
        a, b, c = _rand_point(rng, real_sqrt5=turn % 2 == 0)
        if c:
            text = scalar_text(a, c)
        else:
            text = f"{a} + {b}*sqrt5" if b >= 0 else f"{a} - {-b}*sqrt5"
        spec.update(point=(a, b, c))
        return ["ptilde-eval", f"--z={text}"], spec
    if kind == "eval-numeric":
        re = rng.randint(-600, 600) / 1000 + 0.0005
        im = rng.randint(-600, 600) / 1000 + 0.0005
        precision = PRECISIONS[turn % 3]
        text = f"{re!r},{im!r}" if turn % 2 == 0 else repr(re)
        spec.update(point=complex(re, im if turn % 2 == 0 else 0.0), precision=precision)
        return ["ptilde-eval", f"--z={text}", "--precision", str(precision)], spec
    if kind in ("fib", "fib-csv"):
        count = rng.randint(5, 90)
        spec.update(count=count, output="csv" if kind == "fib-csv" else "json")
        argv = ["fib", "--count", str(count)]
        return (argv + ["--output", "csv"] if kind == "fib-csv" else argv), spec
    if kind == "witness":
        scale = WITNESS_SCALES[turn % 3]
        upper = [scale * rand_rational(rng) for _ in range(3)]
        re, im = rand_gamma(rng, GAMMA_KINDS[(turn // 3) % 3])
        mu, rho = rand_quarter(rng), rand_quarter(rng)
        coeffs = ",".join(["0", "1"] + [str(u) for u in upper])
        spec.update(upper=upper, gamma=(re, im), mu=mu, rho=rho, order=4)
        return ["witness", "--coeffs", coeffs, f"--gamma={scalar_text(re, im)}",
                f"--mu={mu}", f"--rho={rho}", "--order", "4"], spec
    if kind == "ptilde":
        order = rng.randint(6, 16)
        fmt = ("exact", "float")[turn % 2]
        spec.update(order=order, format=fmt, output="json")
        return ["ptilde", "--order", str(order), "--format", fmt], spec
    if kind == "ptilde-table":
        spec.update(order=24, format="exact", output="csv")
        return ["ptilde", "--order", "24", "--output", "csv"], spec
    if kind == "corollaries":
        return ["check-corollaries", "--which", "all"], spec
    if kind == "error":
        argv, code = CLI_ERRORS[turn % len(CLI_ERRORS)]
        spec["exit"] = code
        return list(argv), spec
    raise ValueError(f"unknown request kind {kind!r}")


def cli_ops(seed: int):
    rng = _rng(seed, "cli")
    turns: dict[str, int] = {}
    for i in itertools.count():
        kind = CLI_CYCLE[i % len(CLI_CYCLE)]
        turn = turns.get(kind, 0)
        turns[kind] = turn + 1
        argv, spec = _cli_request(kind, rng, turn)
        latency_class = "large" if argv[0] in CLI_LARGE else "small"
        yield Op(i, latency_class, kind, (argv,), spec)


@dataclass(frozen=True)
class CliResult:
    exit_code: int | None
    stdout: str
    stderr: str
    raised: str | None


def call_cli(argv) -> CliResult:
    """Run `faberfib.cli.main(argv)` with stdout and stderr captured.

    An exception escaping `main` is what an installed console script
    would print as a traceback with exit status 1.
    """
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = faberfib.cli.main(list(argv))
        except Exception as exc:  # noqa: BLE001 - recorded as the op's outcome
            raised = f"{type(exc).__name__}: {exc}"
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue(), raised)


def run_cli(op: Op) -> CliResult:
    return call_cli(op.inputs[0])


@dataclass(frozen=True)
class Workload:
    name: str
    ops: object  # seed -> iterator of Op
    run: object  # Op -> result
    trace_ops: int  # fixed op count of one traced pass
    warmup_ops: int  # ops run untimed before measuring
    by_order: bool  # report a growth table by op label


WORKLOADS = {
    "witness": Workload("witness", witness_ops, run_witness, trace_ops=18, warmup_ops=2, by_order=True),
    "invert": Workload("invert", invert_ops, run_invert, trace_ops=20, warmup_ops=4, by_order=True),
    "cli": Workload("cli", cli_ops, run_cli, trace_ops=80, warmup_ops=40, by_order=False),
}
