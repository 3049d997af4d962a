"""Seeded inputs for the three benchmark workloads, and the expected outputs
that can be derived without the program under test.

Everything here is a pure function of the workload seed and uses its own
prime table, so the inputs stay the same when a later version of the
program changes its prime layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_left
from functools import lru_cache
from itertools import compress

#: ``table_range`` runs ``table S 1 hi`` for these statistics (a trivial
#: scalar, a scalar with cross-dependencies, polynomial products, and the
#: multiplicative rule).  hi is the base length times a seeded factor in
#: [0.9, 1.1], in steps of TABLE_BLOCK; the base lengths make every
#: statistic's table take about the same time, so the per-invocation times
#: form one cluster instead of one per statistic.
TABLE_HI = {"V": 16000, "W": 8250, "WP": 5750, "NK": 3000}
TABLE_STATS = tuple(TABLE_HI)
TABLE_BLOCK = 250
#: lines of each ``table`` output checked against the oracle
TABLE_ORACLE_SAMPLES = 8

#: ``selftest --max-n`` for every ``selftest_oracle`` invocation
SELFTEST_MAX_N = 150

#: ``oneshot_cli`` primes have indices log-uniform in [1, PRIME_INDEX_MAX];
#: PRIME_INDEX_MAX = pi(2*10^7), so every prime is below PRIME_LIMIT
PRIME_LIMIT = 2 * 10**7
PRIME_INDEX_MAX = 1_270_607
#: query numbers stay at or below this
N_MAX = 10**14
#: queries are drawn in stratified blocks of this many (a multiple of 4)
QUERY_BLOCK = 16
#: how many queries of each kind a block holds
QUERY_KINDS = (("stat", 8), ("decode", 5), ("encode", 3))
#: the program's initial sieve bound; a query whose largest prime factor
#: exceeds it makes the program grow its sieve
INITIAL_SIEVE_BOUND = 10**6

ALL_STATS = (
    "V E H LLL LV MD DM PL EPL BV PV SP VL RST ST W TW Z1 Z2 NK MZ1 MZ2 "
    "A_ALPHA R_ALPHA PWP WP DSP EDP HYPER_W MULT_W POLARITY SUM_EVEN SUM_ODD "
    "EXIT_SUM EXIT_MAX EXIT_MAX_COUNT LEVEL_COUNT"
).split()
ALPHAS = ("1", "2", "-1", "-1/2")


def table_hi_max(name: str) -> int:
    return table_hi(name, 1.1)


def table_hi(name: str, factor: float) -> int:
    return round(TABLE_HI[name] * factor / TABLE_BLOCK) * TABLE_BLOCK


def table_rounds(seed: int):
    """Endless rounds of ``table S 1 hi``: lists of (statistic, hi) pairs,
    one per statistic, in seeded order."""
    rng = random.Random(f"table_range:{seed}")
    while True:
        names = list(TABLE_STATS)
        rng.shuffle(names)
        yield [(name, table_hi(name, rng.uniform(0.9, 1.1))) for name in names]


def table_samples(seed: int, index: int, hi: int) -> list[int]:
    """The n values of the index-th ``table`` output checked against the oracle."""
    rng = random.Random(f"table_range:{seed}:sample:{index}")
    return sorted(rng.sample(range(1, hi + 1), TABLE_ORACLE_SAMPLES))


def selftest_seeds(seed: int):
    """Endless ``selftest --seed`` values."""
    rng = random.Random(f"selftest_oracle:{seed}")
    while True:
        yield rng.randrange(10**6)


def primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


class PrimeTable:
    """Primes below PRIME_LIMIT, with index lookup and small factorization."""

    def __init__(self, limit: int = PRIME_LIMIT):
        self.primes = primes_upto(limit)
        self.limit = limit
        self.tree_string = lru_cache(maxsize=None)(self._tree_string)

    def nth(self, m: int) -> int:
        return self.primes[m - 1]

    def index(self, p: int) -> int:
        i = bisect_left(self.primes, p)
        if i == len(self.primes) or self.primes[i] != p:
            raise ValueError(f"{p} is not a prime below {self.limit}")
        return i + 1

    def factor(self, n: int) -> list[int]:
        """Prime factors with multiplicity, by trial division (n small)."""
        out = []
        for p in self.primes:
            if p * p > n:
                break
            while n % p == 0:
                out.append(p)
                n //= p
        if n > 1:
            out.append(n)
        return out

    def _tree_string(self, n: int, factors: tuple[int, ...] | None = None) -> str:
        """Canonical parenthesized tree of n: children ascending by number."""
        if n == 1:
            return "()"
        kids = sorted(self.index(p) for p in (factors or self.factor(n)))
        return "(" + "".join(self.tree_string(t) for t in kids) + ")"

    def tree(self, n: int, factors: tuple[int, ...] | None = None) -> dict:
        """Nested {"matula", "children"} dict, children ascending by number."""
        fs = factors or (self.factor(n) if n > 1 else ())
        kids = sorted(self.index(p) for p in fs)
        return {"matula": str(n), "children": [self.tree(t) for t in kids]}


def render_json(tree: dict) -> str:
    return json.dumps(tree, indent=2)


def render_dot(tree: dict) -> str:
    lines = ["digraph matula {"]
    counter = 0

    def emit(node: dict) -> int:
        nonlocal counter
        me = counter
        counter += 1
        lines.append(f'  n{me} [label="{node["matula"]}"];')
        for child in node["children"]:
            lines.append(f"  n{me} -> n{emit(child)};")
        return me

    emit(tree)
    lines.append("}")
    return "\n".join(lines)


def query_blocks(seed: int, table: PrimeTable):
    """Endless blocks of ``oneshot_cli`` queries.

    Each query is a dict with ``argv`` (the CLI arguments), ``kind``, ``n``,
    its prime ``factors``, the ``stat``, ``alpha`` and ``k`` of a ``stat``
    query, and the ``expected`` stdout.  A query multiplies 1-4 primes whose
    indices are log-uniform in [1, PRIME_INDEX_MAX], dropping the smallest
    until the product is at most N_MAX.

    Every block has the same shape, so that every run sees the same ladder
    of sieve sizes whatever its seed; a query's cost grows about
    exponentially with the quantile of its largest index, so sampling that
    quantile at random would make the runs' tail times differ by tens of
    percent.  Query i of a block (before shuffling) has i % 4 + 1 primes,
    and the quantile of its largest index, within the distribution of the
    largest of that many draws, is the midpoint of the i-th of
    QUERY_BLOCK - 1 equal strata, or 1 for the last query, whose largest
    prime is then 19999999: every run grows the sieve to its full extent.
    The seed draws the other indices, the order, and the query kinds,
    statistics and formats; the kinds come in fixed proportions.
    """
    rng = random.Random(f"oneshot_cli:{seed}")
    log_max = math.log(PRIME_INDEX_MAX + 1)
    shape = [
        (i % 4 + 1, min(1.0, (i + 0.5) / (QUERY_BLOCK - 1))) for i in range(QUERY_BLOCK)
    ]
    while True:
        shapes = list(shape)
        kinds = [kind for kind, share in QUERY_KINDS for _ in range(share)]
        rng.shuffle(shapes)
        rng.shuffle(kinds)
        block = []
        for (count, v), kind in zip(shapes, kinds):
            # The largest of `count` uniform draws has CDF u**count; the
            # others are uniform below it.
            top = v ** (1 / count)
            us = [top] + [top * rng.random() for _ in range(count - 1)]
            indices = [min(PRIME_INDEX_MAX, int(math.exp(u * log_max))) for u in us]
            n = 1
            kept = []
            for p in sorted((table.nth(t) for t in indices), reverse=True):
                if n * p <= N_MAX:
                    n *= p
                    kept.append(p)
            block.append(_query(rng, table, kind, n, tuple(sorted(kept))))
        yield block


def _query(rng: random.Random, table: PrimeTable, kind: str, n: int, factors: tuple[int, ...]) -> dict:
    """One query with its expected stdout; None for ``stat``, whose expected
    value comes from the program's oracle after the run."""
    query = {"n": n, "factors": factors, "stat": None, "alpha": None, "k": None}
    expected = None
    if kind == "stat":
        name = rng.choice(ALL_STATS)
        argv = ["stat", name, str(n)]
        alpha = k = None
        if name in ("A_ALPHA", "R_ALPHA"):
            alpha = rng.choice(ALPHAS)
            argv.append(f"--alpha={alpha}")
        elif name == "LEVEL_COUNT":
            k = rng.randint(0, 4)
        elif name == "POLARITY":
            k = rng.choice((None, 2, 3, 4))
        if k is not None:
            argv += ["--k", str(k)]
        query.update(stat=name, alpha=alpha, k=k)
    elif kind == "decode":
        fmt = rng.choice(("paren", "json", "dot"))
        argv = ["decode", str(n), "--format", fmt]
        if fmt == "paren":
            expected = table.tree_string(n, factors)
        elif fmt == "json":
            expected = render_json(table.tree(n, factors))
        else:
            expected = render_dot(table.tree(n, factors))
        expected += "\n"
    else:
        argv = ["encode", table.tree_string(n, factors)]
        expected = f"{n}\n"
    query.update(argv=argv, kind=kind, expected=expected)
    return query


def block_digests(lines: list[bytes]) -> list[str]:
    """SHA-256 prefix of each whole TABLE_BLOCK-line block of ``table`` output."""
    return [
        hashlib.sha256(b"".join(lines[i : i + TABLE_BLOCK])).hexdigest()[:16]
        for i in range(0, len(lines) - TABLE_BLOCK + 1, TABLE_BLOCK)
    ]
