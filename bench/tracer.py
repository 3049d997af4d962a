"""Spans around the public entry points of each matula layer.

``install`` replaces each entry point on the binding its callers look up
(class attributes for methods called through an instance, module globals
for functions, and the copies other modules imported) with a wrapper that
times the call.  Spans nest on a stack; when one ends its duration is
added to its parent's child time, so a span's self time is its duration
minus the time its child spans cover.  Spans are aggregated per name in
memory and written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import time

#: the matula modules; a span's name starts with its layer
LAYERS = ("primes", "stats", "poly", "tree", "oracle", "cli")

#: IntPolynomial arithmetic and rendering, each traced as one ``poly`` op
POLY_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__str__",
    "derivative",
    "even_part",
    "odd_part",
    "scale_by_x",
    "evaluate",
    "eval_at_one",
    "coefficient",
    "leading_coefficient",
    "degree",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list[float]] = []
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        #: span name -> distinct first arguments, for spans keyed that way
        self.distinct: dict[str, set] = {}

    def wrap(self, name: str, fn, key_arg: int | None = None):
        """Return fn wrapped in a span; key_arg counts distinct arguments."""
        clock, stack = self.clock, self._stack
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        seen = self.distinct.setdefault(name, set()) if key_arg is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(args[key_arg])
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "distinct": {name: len(s) for name, s in self.distinct.items()},
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points in place."""
    from matula import cli, oracle, poly, stats, tree
    from matula.primes import PrimeSieve

    def patch(owner, attr: str, name: str, key_arg: int | None = None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), key_arg))

    # StatsEngine and RootedTree call the sieve through an instance, and the
    # module-level helpers delegate to the shared instance, so the class
    # attributes are the one binding every caller looks up.
    patch(PrimeSieve, "factorize", "primes.factorize", key_arg=1)
    patch(PrimeSieve, "prime_index", "primes.prime_index")
    patch(PrimeSieve, "nth_prime", "primes.nth_prime")

    patch(stats.StatsEngine, "compute", "stats.compute")
    patch(stats.StatsEngine, "composite_value", "stats.composite_value")

    for method in POLY_METHODS:
        patch(poly.IntPolynomial, method, "poly." + method)
    monomial = tracer.wrap("poly.monomial", poly.IntPolynomial.monomial.__func__)
    poly.IntPolynomial.monomial = classmethod(monomial)
    # stats bound IntPolynomial.monomial to a module global at import time.
    stats._monomial = poly.IntPolynomial.monomial

    # cli calls tree functions through the module; oracle imported decode.
    traced_decode = tracer.wrap("tree.decode", tree.decode)
    tree.decode = oracle.decode = traced_decode
    for attr in ("to_canonical_string", "to_json", "to_dot"):
        patch(tree, attr, "tree.render." + attr)
    patch(tree, "parse_canonical_string", "tree.parse")
    patch(tree, "encode", "tree.encode")

    # oracle's own functions call each other through module globals.
    for attr in ("analyze", "oracle_value", "oracle_stat", "compare_all", "random_split_check"):
        patch(oracle, attr, "oracle." + attr)

    patch(cli, "main", "cli.main")
