"""Prime generation, prime indexing, and factorization.

A lazily grown segmented sieve backs three queries: the m-th prime, the
index (order) of a given prime, and factorization into sorted
(prime, multiplicity) pairs.  ``smallest_prime_factors`` sieves one range
on its own, for passes over every n in it.  Everything is exact and
deterministic; requests that would need primes beyond the configured
ceiling raise CapacityExceeded instead of grinding forever.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt, log

from .errors import CapacityExceeded, InvalidInput, NotPrime

_SEGMENT = 1 << 18


@dataclass(frozen=True)
class Factorization:
    """Prime factorization: ascending (prime, multiplicity) pairs.

    ``omega`` is the number of prime factors counted with multiplicity.
    """

    factors: tuple[tuple[int, int], ...]
    omega: int


class PrimeSieve:
    """Segmented Eratosthenes sieve that grows on demand.

    Growth is serialized by an internal lock; the prime list is append-only,
    so concurrent readers are safe.  ``ceiling`` caps how far the sieve may
    ever grow.
    """

    def __init__(self, initial_bound: int = 10**6, ceiling: int = 10**9):
        if initial_bound < 4:
            initial_bound = 4
        if ceiling < initial_bound:
            raise InvalidInput("ceiling must be >= initial_bound")
        self._initial = initial_bound
        self._ceiling = ceiling
        self._limit = 1  # sieved through this value, inclusive
        self._primes: list[int] = []
        self._factor_cache: dict[int, Factorization] = {}
        self._lock = threading.RLock()

    @property
    def ceiling(self) -> int:
        return self._ceiling

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
        base = self._primes[: bisect_left(self._primes, root + 1)]
        low = self._limit + 1
        while low <= new_limit:
            high = min(low + _SEGMENT - 1, new_limit)
            seg = bytearray(b"\x01") * (high - low + 1)
            for p in base:
                if p * p > high:
                    break
                start = max(p * p, ((low + p - 1) // p) * p)
                seg[start - low :: p] = bytes((high - start) // p + 1)
            self._primes.extend(low + i for i, flag in enumerate(seg) if flag)
            low = high + 1
        self._limit = new_limit

    # -- queries ------------------------------------------------------

    def nth_prime(self, m: int) -> int:
        """Return the m-th prime (1-based: nth_prime(1) == 2)."""
        if m < 1:
            raise InvalidInput(f"prime index must be >= 1, got {m}")
        if m > len(self._primes):
            self._ensure(self._nth_prime_bound(m))
            while m > len(self._primes) and self._limit < self._ceiling:
                self._ensure(2 * self._limit)
            if m > len(self._primes):
                raise CapacityExceeded(
                    f"prime #{m} lies beyond the sieve ceiling {self._ceiling}"
                )
        return self._primes[m - 1]

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
                f"indexing prime {p} needs sieving past the ceiling {self._ceiling}"
            )
        # Trial division needs primes only up to sqrt(p); sieve to p only
        # once p is known to be prime.
        if self.factorize(p).omega != 1:
            raise NotPrime(f"{p} is not a prime")
        self._ensure(p)
        i = bisect_left(self._primes, p)
        if i == len(self._primes) or self._primes[i] != p:
            raise NotPrime(f"{p} is not a prime")
        return i + 1

    def factorize(self, n: int) -> Factorization:
        """Trial-divide n over sieved primes; results are cached."""
        if n < 1:
            raise InvalidInput(f"cannot factorize {n}; need n >= 1")
        cached = self._factor_cache.get(n)
        if cached is not None:
            return cached
        factors: list[tuple[int, int]] = []
        m = n
        idx = 0
        while m > 1:
            if idx < len(self._primes):
                p = self._primes[idx]
            else:
                root = isqrt(m)
                if self._limit >= root:
                    p = None  # no untried prime <= sqrt(m): m is prime
                elif root > self._ceiling:
                    raise CapacityExceeded(
                        f"factoring {n} needs primes past the ceiling {self._ceiling}"
                    )
                else:
                    self._ensure(root)
                    continue
            if p is None or p * p > m:
                factors.append((m, 1))
                break
            if m % p == 0:
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                factors.append((p, k))
            idx += 1
        result = Factorization(tuple(factors), sum(k for _, k in factors))
        self._factor_cache[n] = result
        return result


def smallest_prime_factors(lo: int, hi: int) -> list[int]:
    """Smallest prime factor of each composite n in [lo, hi]; 0 at primes and 1.

    ``result[n - lo]`` belongs to n.  A local sieve supplies the primes up
    to sqrt(hi), so the shared sieve is neither read nor grown.
    """
    root = isqrt(hi)
    is_prime = bytearray(b"\x01") * (root + 1)
    base = []
    for p in range(2, root + 1):
        if is_prime[p]:
            base.append(p)
            is_prime[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    spf = [0] * (hi - lo + 1)
    # Largest prime first, so that each n ends up marked by its smallest.
    for p in reversed(base):
        start = max(p * p, -(-lo // p) * p)
        spf[start - lo :: p] = [p] * len(range(start, hi + 1, p))
    return spf


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
