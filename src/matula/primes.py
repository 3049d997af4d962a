"""Prime generation, prime indexing, and factorization.

A table of the odd primes grows in fixed steps to the largest number read,
never past its bound; past the bound, pi(x) comes from Meissel's formula
over that table, the m-th prime from a window between Dusart's bounds, and
factors from Miller–Rabin and Pollard–Brent rho.  Every sieve strikes with
one kernel, ``_strikes``, a segment at a time.  Answers are exact and never
depend on earlier queries; CapacityExceeded marks the ceiling.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import accumulate, compress, count, islice
from math import gcd, isqrt, log, prod
from typing import Iterator, NamedTuple

from .errors import CapacityExceeded, InvalidInput, NotPrime

_SEGMENT = 1 << 18  # odd numbers struck per pass of a segmented sieve, whole _BLOCKs
_BLOCK = 512  # odd numbers per prime count; a query scans at most one block
_STEP = 1 << 15  # odd numbers the table grows by at a time, a whole number of _BLOCKs
_TRIAL = 1 << 10  # factorize divides by the primes below this
# Miller–Rabin with these bases is proven below _MR_PROVEN (Sorenson–Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981
# _WHEEL[r] counts the 1 <= t <= r prime to 2 * 3 * 5 * 7 = 210, which 48 of 210 are.
_WHEEL = tuple(accumulate((gcd(r, 210) == 1 for r in range(1, 210)), initial=0))


class Factorization(NamedTuple):
    """Ascending (prime, multiplicity) pairs; ``omega`` sums the multiplicities."""

    factors: tuple[tuple[int, int], ...]
    omega: int


class PrimeSieve:
    """Eratosthenes sieve over the odd numbers up to a fixed bound, grown as read.

    The state ``(odd, counts)`` starts empty: ``odd[i]`` is 1 when 2i + 1 is
    prime and ``counts[j]`` is the number of ones in ``odd[:j * _BLOCK]`` (the
    last entry counts them all).  ``prime_index`` and ``nth_prime`` extend both
    in place, ``_STEP`` odd numbers at a time, to what they read, and never
    past the bound; an entry once written never changes.  They answer for
    primes up to ``ceiling``; ``factorize(n)``, which reads no table, answers
    when n's prime factors above it multiply to less than (ceiling + 1)**2.
    """

    def __init__(self, initial_bound: int = 10**6, ceiling: int = 10**9):
        self._bound = max(initial_bound, 4)
        if ceiling < self._bound:
            raise InvalidInput(f"ceiling {ceiling} is below the sieve's bound {self._bound}")
        self._ceiling = ceiling
        self._state = (bytearray(), array("L", [0]))
        self._nth_cache: dict[int, int] = {1: 2}  # answered nth_prime calls
        self._pi = cache(self._meissel)  # pi(x) past the table, by x
        self._lock = threading.Lock()

    @property
    def ceiling(self) -> int:
        return self._ceiling

    @property
    def _limit(self) -> int:  # sieved through this value, inclusive; 1 until first read
        return max(1, min(2 * len(self._state[0]), self._bound))

    def _built(self, upto: int) -> tuple:
        """The table, grown in whole steps through upto or the bound, whichever is less."""
        odd, counts = self._state
        if min(upto, self._bound) > 2 * len(odd):  # the table reaches 2 * len(odd)
            with self._lock:
                _extend(odd, counts, min(self._bound, upto | 2 * _STEP - 1))
        return odd, counts

    def nth_prime(self, m: int) -> int:
        """Return the m-th prime (1-based: nth_prime(1) == 2)."""
        _check_int(m, "a prime index")
        if m < 1:
            raise InvalidInput(f"prime index must be >= 1, got {m}")
        # m(ln m + ln ln m - 1) <= p_m for m >= 2; p_m <= m(ln m + ln ln m - 0.9484)
        # for m >= 39017 (Dusart 1999), and without 0.9484 for m >= 6 (Rosser).
        x, c = log(m), self._ceiling  # past the ceiling, p_m > m > c and hi = 0
        hi = 0 if m > c else min(c, 13 if m < 6 else
                                 int(m * (x + log(x) - 0.9484 * (m >= 39017))) + 1)
        lo = int(m * (x + log(x) - 1)) if 1 < m <= c else 2
        # Grow the table only where p_m may lie: p_m >= lo is past it otherwise.
        odd, counts = self._built(hi if lo <= self._bound else 0)
        if m in self._nth_cache:
            return self._nth_cache[m]
        if m <= counts[-1] + 1:
            j = bisect_left(counts, m - 1) - 1  # block j holds the (m - 1)-th odd prime
            start = j * _BLOCK
            # Cache the whole block: neighbouring indices are often asked for next.
            block = compress(count(2 * start + 1, 2), odd[start : start + _BLOCK])
            self._nth_cache.update(zip(count(counts[j] + 2), block))
            return self._nth_cache[m]
        lo = max(self._bound + 1, lo)
        if lo <= hi:
            left = m - self._pi(lo - 1)
            for first, flags in _segments(lo, hi):
                if left <= (found := flags.count(1)):
                    primes = compress(count(first, 2), flags)
                    p = self._nth_cache[m] = next(islice(primes, left - 1, None))
                    return p
                left -= found
        msg = f"prime #{m} lies beyond the sieve ceiling {c}"
        raise CapacityExceeded(msg, needed=m, limit=c)

    def prime_index(self, p: int) -> int:
        """Return m such that nth_prime(m) == p (the order of the prime)."""
        _check_int(p, "a prime")
        if p > self._ceiling:
            msg = f"indexing prime {p} needs sieving past the ceiling {self._ceiling}"
            raise CapacityExceeded(msg, needed=p, limit=self._ceiling)
        if p > self._bound:  # past the table: prove p prime, then count the primes up to it
            if self.factorize(p).omega != 1:
                raise NotPrime(f"{p} is not a prime")
            return self._pi(p)
        odd, counts = self._built(p)
        if p != 2 and (p < 2 or not (p & 1 and odd[p >> 1])):
            raise NotPrime(f"{p} is not a prime")
        return _count(odd, counts, p)

    def _meissel(self, x: int) -> int:
        """pi(x) for x >= 4 by Meissel's formula (Meissel 1870): with c = floor(cbrt x)
        and a = pi(c), pi(x) = phi(x, a) + a - 1 - P2, where P2 sums pi(x // p) -
        pi(p) + 1 over the primes c < p <= sqrt x.  Every pi(y) is read from the
        table grown through max(x // (c + 1), c * c) <= x**(2/3), or from a
        throwaway table sieved that far when it is past the bound."""
        c = round(x ** (1 / 3))
        c -= c**3 > x  # floor(cbrt x): the float root is off by far less than 1/2
        upto = max(x // (c + 1), c * c)
        odd, counts = (self._built(upto) if upto <= self._bound
                       else _extend(bytearray(), array("L", [0]), upto))
        primes = [2, *compress(count(1, 2), odd[: isqrt(x) + 1 >> 1])]
        a = bisect_right(primes, c)
        p2 = sum(_count(odd, counts, x // p) - i for i, p in enumerate(primes[a:], a))
        return _phi(x, primes[:a], odd, counts) + a - 1 - p2

    def factorize(self, n: int) -> Factorization:
        """Trial division by ``_SMALL``, then Miller–Rabin proves cofactors prime and
        rho splits them."""
        _check_int(n, "a number to factorize")
        if n < 1:
            raise InvalidInput(f"cannot factorize {n}; need n >= 1")
        c = self._ceiling
        k = (n & -n).bit_length() - 1  # 2 divides n k times
        m, found = n >> k, [2] * k
        for p in _SMALL:
            if p * p > m:
                break
            while m % p == 0:
                m //= p
                found.append(p)
        pending = [m] if m > 1 else []
        while pending:  # no prime in _SMALL divides what is pending
            m = pending.pop()
            if d := self._split(m):
                pending += (d, m // d)
            else:
                found.append(m)
        factors = tuple((q, found.count(q)) for q in sorted(set(found)))
        root = isqrt(prod(q**e for q, e in factors if q > c))
        if root > c:
            msg = f"factoring {n} needs primes past the ceiling {c}"
            raise CapacityExceeded(msg, needed=root, limit=c)
        return Factorization(factors, len(found))

    def _split(self, m: int) -> int:
        """A factor 1 < d < m of the m that no prime in ``_SMALL`` divides, or 0 when
        m is prime or past every bound; below (ceiling + 1)**2, what rho leaves is
        divided by every prime up to its root."""
        probable = m < _SMALL[-1] ** 2 or _probable_prime(m)
        if probable and m < _MR_PROVEN:
            return 0
        d = 0 if probable else _rho(m, 16 * isqrt(self._ceiling) + 4096)
        if d or isqrt(m) > self._ceiling:
            return d
        return next((p for p in _primes(3, isqrt(m)) if m % p == 0), 0)


def _check_int(x, what: str) -> None:
    """Refuse an x that is not an int; a bool is not one either."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvalidInput(f"{what} must be an integer, got {x!r}")


def _probable_prime(n: int) -> bool:
    """Miller–Rabin on the odd n > 2, with the bases of _MR_BASES below n."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _MR_BASES[: bisect_left(_MR_BASES, n)]:
        x = pow(a, (n - 1) >> s, n)  # then x**2, x**4, ..., x**(2**(s - 1))
        if x != 1 and n - 1 not in accumulate(range(1, s), lambda y, _: y * y % n, initial=x):
            return False
    return True


def _rho(n: int, budget: int) -> int:
    """A factor 1 < d < n of the odd composite n by Pollard's rho with Brent's
    cycle finding (Brent 1980), or 0 once ``budget`` steps have gone by.  A
    round multiplies its differences and takes one gcd; a round whose product
    takes all of n is stepped through again, a gcd per step."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1 and budget > 0:
            x = start = y
            q = 1
            for _ in range(min(r, budget)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            budget -= r
            r *= 2
        if g == n:  # the first step of the round that shares a factor with n
            y, g = start, 1
            while g == 1:
                y = (y * y + c) % n
                g = gcd(x - y, n)
        if g != n:
            return 0 if g == 1 else g


def _extend(odd: bytearray, counts: array, hi: int) -> tuple:
    """Sieve the odd numbers from 2 * len(odd) + 1 through hi onto the table, whose
    length is a whole number of blocks, and return it.  Each segment's counts go
    in before its flags, so a reader that sees a flag also sees its block's count."""
    for _, flags in _segments(2 * len(odd) + 1, hi):
        tallies = (flags.count(1, i, i + _BLOCK) for i in range(0, len(flags), _BLOCK))
        counts[-1:] = array("L", accumulate(tallies, initial=counts[-1]))
        odd += flags
    return odd, counts


def _count(odd: bytearray, counts: array, z: int) -> int:
    """pi(z) for 0 <= z <= 2 * len(odd), read from the table (odd, counts)."""
    k = z + 1 >> 1  # the odd numbers up to z
    j = k // _BLOCK
    return (z > 1) + counts[j] + odd.count(1, j * _BLOCK, k)


def _phi(x: int, primes: list[int], odd: bytearray, counts: array) -> int:
    """phi(x, a), the n <= x that none of the first a = len(primes) primes divides,
    for primes up to cbrt x.  phi(z, i) = phi(z, k) - sum of phi(z // p_j, j - 1)
    over k < j <= i, with k = 4 (the _WHEEL) or 0 (phi(z, 0) = z); once z <
    p_(i+1)**2, phi(z, i) counts 1 and the primes in (p_i, z], which the table
    gives.  ``terms[i]`` maps z to the multiple of phi(z, i) still to add; the
    levels are worked from a down, so equal terms merge before they are expanded."""
    a = len(primes)
    terms: list[dict[int, int]] = [{} for _ in primes] + [{x: 1}]
    below = list(zip(terms, primes))
    total = 0
    for i in reversed(range(a + 1)):
        square = primes[i] ** 2 if i < a else 0  # the top term never takes the shortcut
        kids = below[4 if i >= 4 else 0 : i]
        for z, m in terms[i].items():
            if z < square:
                total += m * (1 + _count(odd, counts, z) - i)
                continue
            total += m * (z // 210 * 48 + _WHEEL[z % 210] if i >= 4 else z)
            for level, p in kids:
                y = z // p
                level[y] = level.get(y, 0) - m
    return total


def _strikes(base: list[int], low: int, high: int) -> Iterator[tuple[int, int]]:
    """(p, first index) of each odd prime p in base, ascending, that strikes odd
    indices [low, high).  Index i stands for the odd number 2i + 1, so p's odd
    multiples lie p indices apart, and striking starts at p * p."""
    for p in base:
        start = p * p >> 1  # the index of p * p
        if start >= high:
            break
        if start < low:
            start = low + (start - low) % p
        yield p, start


def _segments(lo: int, hi: int) -> Iterator[tuple[int, bytearray]]:
    """(first number, flags) per segment of the odd numbers in [lo, hi], lo >= 1;
    a flag is 1 when its number is prime."""
    root = isqrt(hi)
    base = list(_primes(3, root)) if root > 2 else []
    stop = (hi + 1) // 2
    for low in range(lo // 2, stop, _SEGMENT):
        high = min(low + _SEGMENT, stop)
        flags = bytearray(b"\x01") * (high - low)
        if not low:
            flags[0] = 0  # 1 is not prime
        for p, start in _strikes(base, low, high):
            flags[start - low :: p] = bytes(len(range(start, high, p)))
        yield 2 * low + 1, flags


def _primes(lo: int, hi: int) -> Iterator[int]:
    for first, flags in _segments(lo, hi):
        yield from compress(count(first, 2), flags)


def smallest_prime_factors(lo: int, hi: int) -> Iterator[int]:
    """Yield the smallest prime factor of each composite n in [lo, hi], in order;
    primes and 1 give 0.  The odd numbers are struck a segment at a time, largest
    prime first so that each ends up marked by its smallest; the even ones are 2."""
    base = list(_primes(3, isqrt(hi)))
    yield from (0, 0)[lo - 1 : hi]  # n = 1 and 2, which no segment holds
    stop = (hi + 1) // 2  # the odd index of the last odd n <= hi, plus one
    for low in range(max((lo - 1) // 2, 1), stop, _SEGMENT):
        high = min(low + _SEGMENT, stop)
        spf = [0, 2] * (high - low)  # n = 2 * low + 1 + j at spf[j]
        for p, start in reversed(list(_strikes(base, low, high))):
            spf[2 * (start - low) :: 2 * p] = [p] * len(range(start, high, p))
        yield from islice(spf, max(lo - 2 * low - 1, 0), hi - 2 * low)
        del spf  # before the next segment's list exists


_SMALL = tuple(_primes(3, _TRIAL))  # what factorize divides by first
_default = PrimeSieve()  # cheap: a sieve is built on first use


def default_sieve() -> PrimeSieve:
    """The process-wide sieve shared by the tree and stats modules."""
    return _default


def nth_prime(m: int) -> int:
    return _default.nth_prime(m)


def prime_index(p: int) -> int:
    return _default.prime_index(p)


def factorize(n: int) -> Factorization:
    return _default.factorize(n)
