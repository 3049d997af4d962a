"""Prime generation, prime indexing, and factorization.

A lazily grown segmented sieve backs three queries: the m-th prime, the
index (order) of a given prime, and factorization into sorted
(prime, multiplicity) pairs.  The sieve keeps one byte per odd number
plus a running prime count every ``_BLOCK`` odd numbers, so no Python
int is made per prime.  ``smallest_prime_factors`` is a segmented range
sieve over the same striking kernel, ``_strikes``, for passes over every
n in a range; it keeps one segment, not the range.  Everything is exact and
deterministic; requests that would need primes beyond the configured
ceiling raise CapacityExceeded instead of grinding forever.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from itertools import accumulate, compress, count, islice, repeat
from math import isqrt, log
from typing import Iterator, NamedTuple

from .errors import CapacityExceeded, InvalidInput, NotPrime

_SEGMENT = 1 << 18  # odd numbers struck per pass while the sieve grows
_BLOCK = 512  # odd numbers per prime count; a query scans at most one block


class Factorization(NamedTuple):
    """Prime factorization: ascending (prime, multiplicity) pairs.

    ``omega`` is the number of prime factors counted with multiplicity.
    """

    factors: tuple[tuple[int, int], ...]
    omega: int


class PrimeSieve:
    """Segmented Eratosthenes sieve over the odd numbers that grows on demand.

    The state is one tuple ``(limit, odd, counts)``, replaced whole when the
    sieve grows: ``odd[i]`` is 1 when 2i + 1 <= limit is prime, and
    ``counts[j]`` is the number of ones in ``odd[:j * _BLOCK]``, the last
    entry counting them all.  Growth is serialized by an internal lock and
    never mutates a published state, so a concurrent reader sees the old
    state or the new one.  ``ceiling`` caps how far the sieve may ever grow.
    """

    def __init__(self, initial_bound: int = 10**6, ceiling: int = 10**9):
        if initial_bound < 4:
            initial_bound = 4
        if ceiling < initial_bound:
            raise InvalidInput("ceiling must be >= initial_bound")
        self._initial = initial_bound
        self._ceiling = ceiling
        self._state = (1, bytearray(1), array("L", (0, 0)))  # sieved through 1
        self._factor_cache: dict[int, Factorization] = {}
        self._nth_cache: dict[int, int] = {}  # answered nth_prime calls
        self._lock = threading.RLock()

    @property
    def ceiling(self) -> int:
        return self._ceiling

    @property
    def _limit(self) -> int:
        """Sieved through this value, inclusive."""
        return self._state[0]

    def _count(self) -> int:
        """pi(limit): the number of primes sieved so far."""
        limit, _, counts = self._state
        return counts[-1] + (limit >= 2)

    # -- growth -------------------------------------------------------

    def _ensure(self, bound: int) -> None:
        """Sieve at least through min(bound, ceiling)."""
        if bound <= self._limit:
            return
        with self._lock:
            target = min(self._ceiling, max(bound, 2 * self._limit, self._initial))
            if target > self._limit:
                self._extend(target)

    def _extend(self, new_limit: int) -> None:
        # Base primes up to sqrt(new_limit) must exist first.
        root = isqrt(new_limit)
        if root > self._limit:
            self._extend(root)
        _, old, counts = self._state
        size = (new_limit + 1) // 2  # the odd numbers 1, 3, ... <= new_limit
        odd = bytearray(b"\x01") * size
        odd[: len(old)] = old
        base = list(compress(range(3, root + 1, 2), odd[1 : (root + 1) // 2]))
        for low in range(len(old), size, _SEGMENT):
            high = min(low + _SEGMENT, size)
            for p, start in _strikes(base, low, high):
                odd[start:high:p] = bytes(len(range(start, high, p)))
        counts = counts[: len(old) // _BLOCK + 1]  # drop a partial last block
        starts = range((len(counts) - 1) * _BLOCK, size, _BLOCK)
        ends = range(starts.start + _BLOCK, size + _BLOCK, _BLOCK)
        tallies = map(odd.count, repeat(1), starts, ends)
        counts.extend(accumulate(tallies, initial=counts.pop()))
        self._state = (new_limit, odd, counts)

    # -- queries ------------------------------------------------------

    def nth_prime(self, m: int) -> int:
        """Return the m-th prime (1-based: nth_prime(1) == 2)."""
        cached = self._nth_cache.get(m)
        if cached is not None:
            return cached
        if m < 1:
            raise InvalidInput(f"prime index must be >= 1, got {m}")
        if m > self._count():
            self._ensure(self._nth_prime_bound(m))
            while m > self._count() and self._limit < self._ceiling:
                self._ensure(2 * self._limit)
            if m > self._count():
                raise CapacityExceeded(
                    f"prime #{m} lies beyond the sieve ceiling {self._ceiling}",
                    needed=m,
                    limit=self._ceiling,
                )
        if m == 1:
            return 2
        _, odd, counts = self._state
        j = bisect_left(counts, m - 1) - 1  # block j holds the (m - 1)-th odd prime
        start = j * _BLOCK
        numbers = range(2 * start + 1, 2 * (start + _BLOCK), 2)
        # Cache the whole block: neighbouring indices are often asked for next.
        block = compress(numbers, odd[start : start + _BLOCK])
        self._nth_cache.update(zip(count(counts[j] + 2), block))
        return self._nth_cache[m]

    @staticmethod
    def _nth_prime_bound(m: int) -> int:
        # Rosser-style upper bound for p_m, valid for m >= 6.
        if m < 6:
            return 13
        x = log(m)
        return int(m * (x + log(x))) + 10

    def prime_index(self, p: int) -> int:
        """Return m such that nth_prime(m) == p (the order of the prime)."""
        if p < 2:
            raise NotPrime(f"{p} is not a prime")
        if p > self._ceiling:
            raise CapacityExceeded(
                f"indexing prime {p} needs sieving past the ceiling {self._ceiling}",
                needed=p,
                limit=self._ceiling,
            )
        # Trial division needs primes only up to sqrt(p); sieve to p only
        # once p is known to be prime.
        if self.factorize(p).omega != 1:
            raise NotPrime(f"{p} is not a prime")
        self._ensure(p)
        if p == 2:
            return 1
        _, odd, counts = self._state
        i = p >> 1
        j = i // _BLOCK
        return 2 + counts[j] + odd.count(1, j * _BLOCK, i)

    def factorize(self, n: int) -> Factorization:
        """Trial-divide n over sieved primes; results are cached."""
        if n < 1:
            raise InvalidInput(f"cannot factorize {n}; need n >= 1")
        cached = self._factor_cache.get(n)
        if cached is not None:
            return cached
        factors: list[tuple[int, int]] = []
        m = n
        tried = 1  # every prime <= tried has been divided out of m
        while m > 1:
            limit, odd, _ = self._state
            if tried >= limit:  # no sieved prime left to try
                root = isqrt(m)
                if limit >= root:
                    break  # no prime <= sqrt(m) divides m: m is prime
                if root > self._ceiling:
                    if limit < self._initial:
                        # A cold sieve first tries the primes any warm one has.
                        self._ensure(self._initial)
                        continue
                    raise CapacityExceeded(
                        f"factoring {n} needs primes past the ceiling {self._ceiling}",
                        needed=root,
                        limit=self._ceiling,
                    )
                self._ensure(root)
                continue
            if tried < 2:  # 2, then the odd numbers from 1 (odd[0] is 0)
                k = (m & -m).bit_length() - 1
                if k:
                    m >>= k
                    factors.append((2, k))
                candidates = compress(range(1, limit + 1, 2), odd)
            else:  # the odd numbers past the limit of an earlier state
                first = (tried + 1) // 2
                odd_after = range(2 * first + 1, limit + 1, 2)
                candidates = compress(odd_after, memoryview(odd)[first:])
            for p in candidates:
                if p * p > m:
                    break
                if m % p == 0:
                    k = 0
                    while m % p == 0:
                        m //= p
                        k += 1
                    factors.append((p, k))
            else:
                tried = limit
                continue
            break
        if m > 1:
            factors.append((m, 1))
        result = Factorization(tuple(factors), sum(k for _, k in factors))
        self._factor_cache[n] = result
        return result


def _strikes(base: list[int], low: int, high: int) -> Iterator[tuple[int, int]]:
    """(p, first index) of each prime p in base that strikes odd indices [low, high).

    Index i stands for the odd number 2i + 1, so p's odd multiples lie p
    indices apart, and striking starts at p * p.  base holds odd primes,
    ascending.
    """
    for p in base:
        start = p * p >> 1  # the index of p * p
        if start >= high:
            break
        if start < low:
            start = low + (start - low) % p
        yield p, start


def smallest_prime_factors(lo: int, hi: int) -> Iterator[int]:
    """Yield the smallest prime factor of each composite n in [lo, hi], in order.

    Primes and 1 give 0.  The odd numbers are struck ``_SEGMENT`` at a
    time by ``_strikes``, largest prime first so that each ends up marked
    by its smallest, and the even ones are 2.  A local sieve supplies the
    primes up to sqrt(hi), so the shared sieve is neither read nor grown,
    and memory stays one segment.
    """
    root = isqrt(hi)
    local = PrimeSieve()
    local._extend(root)
    base = list(compress(range(3, root + 1, 2), local._state[1][1:]))
    yield from (0, 0)[lo - 1 : hi]  # n = 1 and 2, which no segment holds
    stop = (hi + 1) // 2  # the odd index of the last odd n <= hi, plus one
    for low in range(max((lo - 1) // 2, 1), stop, _SEGMENT):
        high = min(low + _SEGMENT, stop)
        spf = [0, 2] * (high - low)  # n = 2 * low + 1 + j at spf[j]
        for p, start in reversed(list(_strikes(base, low, high))):
            spf[2 * (start - low) :: 2 * p] = [p] * len(range(start, high, p))
        first = 2 * low + 1
        yield from islice(spf, max(lo - first, 0), hi + 1 - first)
        del spf  # before the next segment's list exists


_default: PrimeSieve | None = None
_default_lock = threading.Lock()


def default_sieve() -> PrimeSieve:
    """The process-wide sieve shared by the tree and stats modules."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = PrimeSieve()
    return _default


def nth_prime(m: int) -> int:
    return default_sieve().nth_prime(m)


def prime_index(p: int) -> int:
    return default_sieve().prime_index(p)


def factorize(n: int) -> Factorization:
    return default_sieve().factorize(n)
