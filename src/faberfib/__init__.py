"""Exact coefficient machinery for golden-ratio subordination classes.

The package computes, entirely in exact arithmetic, the objects behind
coefficient estimates for bi-univalent maps subordinate to the
golden-ratio generator: truncated series and their compositional
inverses (two independent routes), partition-sum polynomials, the
generator's Fibonacci-weighted Taylor coefficients, the Tremblay
fractional operator, the two-sided membership test, and the resulting
coefficient bounds with certified float renderings.

Each public name is declared once, in its module's `__all__`; the
package re-exports exactly those names.
"""

from . import bounds, exact, faber, golden, series, tremblay
from .bounds import *
from .exact import *
from .faber import *
from .golden import *
from .series import *
from .tremblay import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (exact, series, faber, golden, tremblay, bounds)
    for name in module.__all__
]
