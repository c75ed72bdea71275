"""Multivariate linear congruences over the integers.

Solvability, exact solution counts, per-seed expansion, bases of pairwise
independent solutions, and full enumeration for

    a1*x1 + a2*x2 + ... + an*xn ≡ b (mod m).

The package exports the names of core and parser.  The brute-force oracle
and the integer helpers are not re-exported: import them from
lincong.oracle and lincong.intmath.
"""

from . import core, parser
from .core import *
from .parser import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *parser.__all__]
