"""Matula numbers: the bijection between positive integers and rooted trees.

decode/encode move between the two sides; the stats engine computes tree
statistics straight from the integer via prime-factorization recursions;
the oracle recomputes everything from the explicit tree for cross-checks.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it.  A name is imported on
# first access, so a command loads only the modules it runs.
_MODULES = {
    "BudgetExceeded": "errors",
    "CapacityExceeded": "errors",
    "DESCRIPTIONS": "stats",
    "Factorization": "primes",
    "IntPolynomial": "poly",
    "InternalIntegrityError": "errors",
    "InvalidInput": "errors",
    "MatulaError": "errors",
    "NotPrime": "errors",
    "OEIS_IDS": "stats",
    "ParseError": "errors",
    "PrimeSieve": "primes",
    "RootedTree": "tree",
    "StatName": "stats",
    "StatsEngine": "stats",
    "TreeAnalysis": "oracle",
    "UnsupportedName": "errors",
    "analyze": "oracle",
    "decode": "tree",
    "default_engine": "stats",
    "encode": "tree",
    "factorize": "primes",
    "nth_prime": "primes",
    "oracle_stat": "oracle",
    "parse_canonical_string": "tree",
    "prime_index": "primes",
    "random_split_check": "oracle",
    "to_canonical_string": "tree",
    "to_dot": "tree",
    "to_json": "tree",
}

__all__ = [*_MODULES, "__version__"]


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
