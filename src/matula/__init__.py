"""Matula numbers: the bijection between positive integers and rooted trees.

decode/encode move between the two sides; the stats engine computes tree
statistics straight from the integer via prime-factorization recursions;
the oracle recomputes everything from the explicit tree for cross-checks.
"""

from .errors import (
    BudgetExceeded,
    CapacityExceeded,
    InternalIntegrityError,
    InvalidInput,
    MatulaError,
    NotPrime,
    ParseError,
    UnsupportedName,
)
from .poly import IntPolynomial
from .primes import Factorization, PrimeSieve, factorize, nth_prime, prime_index
from .stats import (
    DESCRIPTIONS,
    OEIS_IDS,
    StatName,
    StatsEngine,
    default_engine,
)
from .tree import (
    RootedTree,
    decode,
    encode,
    parse_canonical_string,
    to_canonical_string,
    to_dot,
    to_json,
)

__version__ = "0.1.0"

# The oracle is loaded on first use: only selftest and library callers need
# it, and importing it would slow every one-shot command.
_ORACLE_NAMES = frozenset({"TreeAnalysis", "analyze", "oracle_stat", "random_split_check"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BudgetExceeded",
    "CapacityExceeded",
    "DESCRIPTIONS",
    "Factorization",
    "IntPolynomial",
    "InternalIntegrityError",
    "InvalidInput",
    "MatulaError",
    "NotPrime",
    "OEIS_IDS",
    "ParseError",
    "PrimeSieve",
    "RootedTree",
    "StatName",
    "StatsEngine",
    "TreeAnalysis",
    "UnsupportedName",
    "analyze",
    "decode",
    "default_engine",
    "encode",
    "factorize",
    "nth_prime",
    "oracle_stat",
    "parse_canonical_string",
    "prime_index",
    "random_split_check",
    "to_canonical_string",
    "to_dot",
    "to_json",
    "__version__",
]
