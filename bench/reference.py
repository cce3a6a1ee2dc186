"""Reference kernels that measure how fast the shared machine runs right now.

The benchmark's machines share cores with other tenants, and the same op
can take 1.8x more CPU time for seconds at a time.  Timing a fixed kernel
just before and just after an op tells how fast the machine ran
meanwhile; dividing by it turns a CPU time into reference time.  A
kernel uses only the standard library, so a change to faberfib cannot
change it.

Each kernel's nominal time is what it takes on the uncontended 2-core
x86-64 machine (CPython 3.11.7) the benchmark was written on, so that a
reference millisecond there equals a CPU millisecond.  A workload picks
the kernels whose work resembles its own: Fraction arithmetic for the
library workloads, plus argparse and JSON for the CLI.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction
from time import process_time


def fraction_kernel():
    acc, x = Fraction(0), Fraction(3, 7)
    for k in range(1, 120):
        acc = acc * x + Fraction(k, k + 2)


def parser_kernel():
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for i in range(4):
        p = sub.add_parser(f"c{i}")
        p.add_argument("--a", type=int)
        p.add_argument("--b", choices=("x", "y"), default="x")
    ns = parser.parse_args(["c2", "--a", "5"])
    json.dumps({"a": [ns.a, ns.b, str(Fraction(ns.a, 7))] * 20}, indent=2)


# kernel -> nominal seconds on the uncontended reference machine
KERNELS = {"fraction": (fraction_kernel, 0.60e-3), "parser": (parser_kernel, 0.85e-3)}


class Speed:
    """Times a sum of kernels and rescales CPU time to reference time."""

    def __init__(self, kernels: tuple[str, ...]):
        self.kernels = [KERNELS[name][0] for name in kernels]
        self.nominal_s = sum(KERNELS[name][1] for name in kernels)

    def sample(self) -> float:
        start = process_time()
        for kernel in self.kernels:
            kernel()
        return process_time() - start

    def scale(self, before: float, after: float) -> float:
        """Factor from CPU to reference time for kernel samples taken around a measurement."""
        return self.nominal_s / ((before + after) / 2)
