"""CLI output bytes pinned per argument list.

Each case runs `faberfib.cli.main` in-process and records its exit code
and the sha256 of its stdout and of its stderr in `cli_corpus.json`.
The cases cover every subcommand, `--format exact|float`,
`--output json|csv`, the documented exit-2 and exit-3 paths, `bound` on
all four kinds of weight (rational or irrational |gamma|, real or
non-real gamma*P - 3Q), numeric `ptilde-eval` at three precisions and
the `--help` text of the top level and of every subcommand.  Each case
runs with COLUMNS=80, the width argparse wraps help text to.
No case prints a `hash`, so the digests do not depend on
`PYTHONHASHSEED`.  Argparse writes some of the stderr texts, so those
digests belong to the Python version they were recorded with.

A change that means to alter output regenerates the corpus with

    PYTHONPATH=src python tests/test_cli_corpus.py

and says which entries changed and why; the script prints each new,
changed or removed entry before it writes the file.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from faberfib.cli import ENV_PRECISION, main

CORPUS = Path(__file__).resolve().with_name("cli_corpus.json")

BOUND_PARAMS = ["--mu", "1/2", "--rho", "1/4"]

# (argv, FABERFIB_PRECISION or None)
CASES = [
    # revert
    (["revert", "--coeffs", "0,1,1,1,1"], None),
    (["revert", "--coeffs", "0,1,1/2,-1/3,sqrt5", "--format", "float"], None),
    (["revert", "--coeffs", "0,1,i,1/2 + sqrt5"], None),
    (["revert", "--coeffs", "0,1,i,1/2", "--format", "float"], None),
    (["revert", "--coeffs", "0,2,0"], None),
    (["revert", "--coeffs", "1,1,0"], None),
    (["revert", "--coeffs", "0,1,0", "--output", "csv"], None),
    (["revert", "--coeffs", "0,1,zebra"], None),
    (["revert", "--coeffs", "0,1,1/0"], None),
    # inverse
    (["inverse", "--coeffs", "0,1,1,1,1", "--order", "4"], None),
    (["inverse", "--coeffs", "0,1,1/10,1/20,1/30,1/40,1/50"], None),
    (["inverse", "--coeffs", "0,1,(1/2)*i,sqrt5", "--format", "float"], None),
    (["inverse", "--coeffs", "0,1,1,1", "--order", "0"], None),
    (["inverse", "--coeffs", "0,3,1"], None),
    # bell
    (["bell", "--n", "3", "--m", "2", "--coeffs", "1,1/2,5"], None),
    (["bell", "--n", "6", "--m", "3", "--coeffs", "1,sqrt5,i,1/2,2,3", "--format", "float"], None),
    (["bell", "--n", "4", "--m", "2", "--coeffs", "1,i,2,3"], None),
    (["bell", "--n", "3", "--m", "5", "--coeffs", "1,2,3"], None),
    (["bell", "--n", "2", "--m", "1", "--coeffs", "1"], None),
    # the n budget (cli.MAX_BELL_N = 40) and one past it
    (["bell", "--n", "40", "--m", "40", "--coeffs", ",".join(["2"] + ["1"] * 39)], None),
    (["bell", "--n", "41", "--m", "1", "--coeffs", ",".join(["1"] * 41)], None),
    # faber-k
    (["faber-k", "--n", "1", "--p", "-2", "--coeffs", "1,3,0"], None),
    (["faber-k", "--n", "4", "--p", "-5", "--coeffs", "1,1/2,sqrt5,i,1/3"], None),
    (["faber-k", "--n", "3", "--p", "7", "--coeffs", "1,1,1,1", "--format", "float"], None),
    (["faber-k", "--n", "2", "--p", "1", "--coeffs", "2,1,1"], None),
    # fib, with the flag and environment errors every subcommand shares
    (["fib", "--count", "0"], None),
    (["fib", "--count", "10"], None),
    (["fib", "--count", "500"], None),
    (["fib", "--count", "12", "--output", "csv"], None),
    (["fib", "--count", "-1"], None),
    (["fib", "--count", "x"], None),
    (["fib", "--count", "5", "--precision", "40"], None),
    (["fib", "--count", "5", "--precision", "abc"], None),
    (["fib", "--count", "3", "--frob"], None),
    (["fib", "--count", "2"], "10"),
    (["fib", "--count", "2"], "zebra"),
    (["fib", "--count", "2"], "256"),
    # the precision budget (cli._MAX_PRECISION_BITS = 32768) and one past it
    (["fib", "--count", "2", "--precision", "32768"], None),
    (["fib", "--count", "2", "--precision", "32769"], None),
    (["fib", "--count", "2"], "32768"),
    (["fib", "--count", "2"], "32769"),
    # ptilde
    (["ptilde", "--order", "1"], None),
    (["ptilde", "--order", "6"], None),
    (["ptilde", "--order", "40"], None),
    (["ptilde", "--order", "12", "--format", "float"], None),
    (["ptilde", "--order", "8", "--output", "csv"], None),
    (["ptilde", "--order", "8", "--output", "csv", "--format", "float"], None),
    (["ptilde", "--order", "0"], None),
    (["ptilde", "--order", "2", "--precision", "52"], None),
    # ptilde-eval, exact points
    (["ptilde-eval", "--z", "1/4 + 1/4*sqrt5"], None),
    (["ptilde-eval", "--z", "2+i"], None),
    (["ptilde-eval", "--z", "(1/2 - 1/2*sqrt5)*i", "--format", "float"], None),
    (["ptilde-eval", "--z=-1"], None),
    (["ptilde-eval", "--z", "1/0"], None),
    (["ptilde-eval", "--z", "(1/0)*i"], None),
    (["ptilde-eval", "--z", "1/2", "--output", "csv"], None),
    # ptilde-eval, numeric points (the path that loads mpmath)
    *[
        (["ptilde-eval", f"--z={point}", "--precision", bits], None)
        for point in ("0.1,0.2", "0.3", "-0.7,1.1", "2.618034,0")
        for bits in ("53", "128", "256")
    ],
    (["ptilde-eval", "--z", "0.25"], "64"),
    (["ptilde-eval", "--z=-1.0"], None),
    (["ptilde-eval", "--z=-1.0,0", "--precision", "53"], None),
    (["ptilde-eval", "--z", "nan"], None),
    (["ptilde-eval", "--z", "inf"], None),
    (["ptilde-eval", "--z", "1e400,0"], None),
    (["ptilde-eval", "--z", "abc"], None),
    # schwarz-solve
    (["schwarz-solve", "--coeffs", "1,0,0"], None),
    (["schwarz-solve", "--coeffs", "1,1/2,1/3,1/4"], None),
    (["schwarz-solve", "--coeffs", "1,i,1/2", "--format", "float"], None),
    (["schwarz-solve", "--coeffs", "2,0"], None),
    # tremblay
    (["tremblay", "--coeffs", "0,1,1", "--mu", "1/2", "--rho", "1/4"], None),
    (["tremblay", "--coeffs", "0,1,sqrt5,i", "--mu", "3", "--rho", "1/3", "--format", "float"], None),
    (["tremblay", "--coeffs", "0,1,1", "--mu", "5", "--rho", "1"], None),
    (["tremblay", "--coeffs", "0,1,1", "--mu", "1", "--rho", "-2"], None),
    (["tremblay", "--coeffs", "0,1,1", "--mu", "2/0", "--rho", "1"], None),
    # class-lhs
    (["class-lhs", "--coeffs", "0,1,1/10", "--gamma", "1", "--mu", "1", "--rho", "1"], None),
    (["class-lhs", "--coeffs", "0,1,1/10,1/20", "--gamma", "2+i", *BOUND_PARAMS,
      "--format", "float"], None),
    (["class-lhs", "--coeffs", "0,1,0", "--gamma", "0", "--mu", "1", "--rho", "1"], None),
    (["class-lhs", "--coeffs", "0,1,0", "--gamma", "1/0", "--mu", "1", "--rho", "1"], None),
    # witness
    (["witness", "--coeffs", "0,1,1/10,1/20,1/50", "--gamma", "1", "--mu", "1", "--rho", "1"], None),
    (["witness", "--coeffs", "0,1,10,0", "--gamma", "1", "--mu", "1", "--rho", "1"], None),
    (["witness", "--coeffs", "0,1,1/10,1/20,1/30", "--gamma", "3/2", *BOUND_PARAMS,
      "--order", "3"], None),
    (["witness", "--coeffs", "0,1,1/10,1/20", "--gamma", "sqrt5 + i", *BOUND_PARAMS,
      "--format", "float"], None),
    (["witness", "--coeffs", "0,1,1/10", "--gamma", "1", "--mu", "1", "--rho", "1",
      "--order", "9"], None),
    # bound: rational |gamma| with real and with non-real gamma*P - 3Q, then
    # irrational |gamma| with real and with non-real gamma*P - 3Q
    *[
        (["bound", "--theorem", "2", "--gamma", gamma, *BOUND_PARAMS], None)
        for gamma in ("3", "3/5 + 4/5*i", "sqrt5", "2+i")
    ],
    *[
        (["bound", "--theorem", "1", "--n", "4", "--gamma", gamma, *BOUND_PARAMS], None)
        for gamma in ("3", "3/5 + 4/5*i", "sqrt5", "2+i")
    ],
    (["bound", "--theorem", "1", "--n", "3", "--gamma", "1", "--mu", "1", "--rho", "1"], None),
    (["bound", "--theorem", "1", "--n", "5", "--gamma", "1+i", *BOUND_PARAMS,
      "--output", "csv"], None),
    (["bound", "--theorem", "2", "--which", "a2", "--gamma", "1+i", "--mu", "1", "--rho", "1"], None),
    (["bound", "--theorem", "2", "--which", "a3", "--gamma", "sqrt5", *BOUND_PARAMS,
      "--output", "csv"], None),
    # the second a3 branch's bracket numerator is exactly zero here
    (["bound", "--theorem", "2", "--which", "a3", "--gamma", "2/3 + 2/3*sqrt5",
      "--mu", "1", "--rho", "1"], None),
    (["bound", "--theorem", "2", "--gamma", "3/5 + 4/5*i", *BOUND_PARAMS,
      "--precision", "256"], None),
    (["bound", "--theorem", "2", "--gamma", "1/10", "--mu", "1", "--rho", "1"], "64"),
    (["bound", "--theorem", "1", "--gamma", "1", "--mu", "1", "--rho", "1"], None),
    (["bound", "--theorem", "1", "--n", "2", "--gamma", "1", "--mu", "1", "--rho", "1"], None),
    (["bound", "--theorem", "3", "--gamma", "1", "--mu", "1", "--rho", "1"], None),
    (["bound", "--theorem", "2", "--gamma", "0", "--mu", "1", "--rho", "1"], None),
    # check-corollaries
    (["check-corollaries", "--which", "1"], None),
    (["check-corollaries", "--which", "all", "--output", "csv"], None),
    (["check-corollaries", "--which", "3", "--gammas", "1,2+i", "--ns", "3,4",
      "--format", "float"], None),
    (["check-corollaries", "--which", "5"], None),
    # no subcommand, unknown subcommand
    ([], None),
    (["frobnicate"], None),
    # help text of the top level and of every subcommand
    (["--help"], None),
    *[
        ([name, "--help"], None)
        for name in (
            "revert", "bell", "faber-k", "inverse", "fib", "ptilde", "ptilde-eval",
            "schwarz-solve", "tremblay", "class-lhs", "witness", "bound",
            "check-corollaries",
        )
    ],
]


def run_case(argv, env_precision):
    """(exit code, stdout, stderr) of one in-process CLI call.

    COLUMNS is pinned to 80 because argparse wraps help text to it.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop(ENV_PRECISION, None)
        if env_precision is not None:
            os.environ[ENV_PRECISION] = env_precision
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def record(argv, env_precision) -> dict:
    code, out, err = run_case(argv, env_precision)
    return {
        "argv": list(argv),
        "env_precision": env_precision,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.encode()).hexdigest(),
    }


def label(entry) -> str:
    env = entry["env_precision"]
    return " ".join(entry["argv"]) + (f" [env {env}]" if env else "")


def load_corpus() -> list:
    """The recorded entries; none before the first recording."""
    return json.loads(CORPUS.read_text()) if CORPUS.exists() else []


def test_corpus_lists_every_case():
    recorded = [(entry["argv"], entry["env_precision"]) for entry in load_corpus()]
    assert recorded == [(list(argv), env) for argv, env in CASES]


def test_corpus_covers_every_subcommand():
    from faberfib.cli import _build_parser

    parser = _build_parser(128)
    (sub,) = [a for a in parser._actions if a.dest == "subcommand"]
    covered = {argv[0] for argv, _ in CASES if argv}
    assert set(sub.choices) <= covered


@pytest.mark.parametrize(
    "entry",
    load_corpus(),
    ids=label,
)
def test_output_bytes_unchanged(entry):
    assert record(entry["argv"], entry["env_precision"]) == entry


if __name__ == "__main__":
    before = {label(entry): entry for entry in load_corpus()}
    entries = [record(argv, env) for argv, env in CASES]
    for entry in entries:
        old = before.pop(label(entry), None)
        if old is None:
            print(f"new: {label(entry)}", file=sys.stderr)
        elif old != entry:
            fields = [key for key in ("exit", "stdout_sha256", "stderr_sha256") if old[key] != entry[key]]
            print(f"changed ({', '.join(fields)}): {label(entry)}", file=sys.stderr)
    for name in before:
        print(f"removed: {name}", file=sys.stderr)
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"wrote {len(CASES)} cases to {CORPUS}", file=sys.stderr)
