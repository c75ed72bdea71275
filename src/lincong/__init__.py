"""Multivariate linear congruences over the integers.

Solvability, exact solution counts, per-seed expansion, bases of pairwise
independent solutions, and full enumeration for

    a1*x1 + a2*x2 + ... + an*xn ≡ b (mod m).
"""

from .core import (
    LinearCongruence,
    Solution,
    SolveSummary,
    are_dependent,
    build_basis,
    enumerate_all,
    enumerate_raw,
    expand,
    find_particular,
    iter_basis,
    module_generators,
    normalize,
    satisfies,
    summarize,
)
from .parser import ParsedCongruence, ParseError, format_congruence, parse

__version__ = "0.1.0"

# names of the modules a one-shot CLI call does not use, imported on first
# access (PEP 562) so that `import lincong.cli` does not pay for them
_LAZY = {
    "intmath": ("BezoutCertificate", "UnaryCongruenceSolution", "basis_size",
                "extended_gcd", "multi_gcd_bezout", "solve_unary"),
    "oracle": ("CapExceededError", "OracleReport", "brute_force", "verify"),
}

__all__ = [
    "BezoutCertificate",
    "CapExceededError",
    "LinearCongruence",
    "OracleReport",
    "ParseError",
    "ParsedCongruence",
    "Solution",
    "SolveSummary",
    "UnaryCongruenceSolution",
    "are_dependent",
    "basis_size",
    "brute_force",
    "build_basis",
    "enumerate_all",
    "enumerate_raw",
    "expand",
    "extended_gcd",
    "find_particular",
    "format_congruence",
    "iter_basis",
    "module_generators",
    "multi_gcd_bezout",
    "normalize",
    "parse",
    "satisfies",
    "solve_unary",
    "summarize",
    "verify",
]


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module

            value = import_module(f"{__name__}.{module}")
            value = value if name == module else getattr(value, name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
