import math
import random
import sys
import threading
import time
import tracemalloc
from bisect import bisect_right
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula.errors import CapacityExceeded, InvalidInput, NotPrime
from matula.primes import (
    _SEGMENT,
    PrimeSieve,
    _rho,
    factorize,
    nth_prime,
    prime_index,
    smallest_prime_factors,
)


def test_nth_prime_known_values():
    assert nth_prime(1) == 2
    assert nth_prime(2) == 3
    assert nth_prime(3) == 5
    assert nth_prime(7) == 17
    assert nth_prime(32277) == 379721


def test_nth_prime_strictly_increasing():
    values = [nth_prime(m) for m in range(1, 500)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_nth_prime_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        nth_prime(0)
    with pytest.raises(InvalidInput):
        nth_prime(-3)


def test_prime_index_known_values():
    assert prime_index(2) == 1
    assert prime_index(17) == 7
    assert prime_index(379721) == 32277


def test_prime_index_rejects_composites():
    for bad in (0, 1, 4, 9, 100, 987654321):
        with pytest.raises(NotPrime):
            prime_index(bad)


def test_prime_index_rejects_composites_without_sieving_to_them():
    sieve = PrimeSieve()
    with pytest.raises(NotPrime):
        sieve.prime_index(987654321)
    assert sieve._limit <= 10**6


def test_prime_index_roundtrip():
    for m in range(1, 400):
        assert prime_index(nth_prime(m)) == m


def test_factorize_worked_example():
    fz = factorize(987654321)
    assert fz.factors == ((3, 2), (17, 2), (379721, 1))
    assert fz.omega == 5
    assert factorize(32277).factors == ((3, 1), (7, 1), (29, 1), (53, 1))


def test_factorize_one():
    fz = factorize(1)
    assert fz.factors == ()
    assert fz.omega == 0
    assert math.prod(p**k for p, k in fz.factors) == 1


def test_factorize_rejects_zero():
    with pytest.raises(InvalidInput):
        factorize(0)
    with pytest.raises(InvalidInput):
        factorize(-12)


def test_factorize_recomposes():
    for n in range(1, 3000):
        fz = factorize(n)
        assert math.prod(p**k for p, k in fz.factors) == n
        assert fz.omega == sum(k for _, k in fz.factors)
        ps = [p for p, _ in fz.factors]
        assert ps == sorted(ps)
        assert all(factorize(p).omega == 1 for p in ps)


def test_omega_is_additive():
    rng = random.Random(12345)
    for _ in range(300):
        r = rng.randrange(2, 5000)
        s = rng.randrange(2, 5000)
        assert factorize(r * s).omega == factorize(r).omega + factorize(s).omega


def test_smallest_prime_factors_of_a_range():
    windows = ((1, 1), (1, 2), (1, 2000), (97, 97), (961, 961), (10**6 - 40, 10**6 + 40))
    for lo, hi in windows:
        want = []
        for n in range(lo, hi + 1):
            fz = factorize(n)
            want.append(fz.factors[0][0] if fz.omega > 1 else 0)
        assert list(smallest_prime_factors(lo, hi)) == want
    assert list(smallest_prime_factors(5, 3)) == []


def _plain_spf(hi):
    """Smallest prime factor of each n <= hi at spf[n], 0 at primes, 0 and 1."""
    spf = [0] * (hi + 1)
    for p in range(2, math.isqrt(hi) + 1):
        if not spf[p]:
            for m in range(p * p, hi + 1, p):
                if not spf[m]:
                    spf[m] = p
    return spf


def test_smallest_prime_factors_across_segment_boundaries():
    width = 2 * _SEGMENT  # integers per segment
    windows = [(width - 7, 3 * width + 9), (width - 8, 3 * width + 10)]
    want = _plain_spf(max(hi for _, hi in windows))
    for lo, hi in windows:
        assert list(smallest_prime_factors(lo, hi)) == want[lo : hi + 1], (lo, hi)


def test_fresh_sieve_stays_at_its_built_bound():
    for bound, ceiling, least in ((2, 3, 4), (3, 3, 4), (10, 9, 10)):
        with pytest.raises(InvalidInput) as exc:
            PrimeSieve(bound, ceiling)
        assert str(exc.value) == f"ceiling {ceiling} is below the sieve's bound {least}"
    assert PrimeSieve(3, 4)._limit == PrimeSieve(10, 10)._limit == 1
    sieve = PrimeSieve(initial_bound=10, ceiling=10**6)
    assert sieve._limit == 1  # built on first use
    assert sieve.nth_prime(25) == 97
    assert sieve.prime_index(541) == 100
    assert sieve.factorize(2 * 3 * 541).factors == ((2, 1), (3, 1), (541, 1))
    assert sieve.factorize(541 * 547).factors == ((541, 1), (547, 1))
    assert sieve._limit == 10  # answered past the sieve, which never grew


def test_capacity_nth_prime():
    sieve = PrimeSieve(initial_bound=10, ceiling=100)
    assert sieve.nth_prime(25) == 97
    with pytest.raises(CapacityExceeded) as exc:
        sieve.nth_prime(26)  # p_26 = 101 > ceiling
    assert str(exc.value) == "prime #26 lies beyond the sieve ceiling 100"
    assert (exc.value.needed, exc.value.limit) == (26, 100)


def test_capacity_prime_index():
    sieve = PrimeSieve(initial_bound=10, ceiling=100)
    with pytest.raises(CapacityExceeded) as exc:
        sieve.prime_index(101)
    assert str(exc.value) == "indexing prime 101 needs sieving past the ceiling 100"
    assert (exc.value.needed, exc.value.limit) == (101, 100)


def test_capacity_factorize():
    sieve = PrimeSieve(initial_bound=10, ceiling=100)
    # smallest factor is 10007, past any prime the sieve may ever hold
    with pytest.raises(CapacityExceeded) as exc:
        sieve.factorize(10007**2)
    assert str(exc.value) == f"factoring {10007**2} needs primes past the ceiling 100"
    assert (exc.value.needed, exc.value.limit) == (10007, 100)
    # still fine when sqrt fits under the ceiling
    assert sieve.factorize(9973).factors == ((9973, 1),)


@pytest.mark.parametrize(
    "n, factors",
    [(2**400, ((2, 400),)), (3**400, ((3, 400),)), (2**400 * 3**5, ((2, 400), (3, 5)))],
    ids=["2**400", "3**400", "2**400*3**5"],
)
def test_cold_sieve_factorizes_what_a_warm_one_does(n, factors):
    # sqrt(n) is past the ceiling, but the small primes divide n out.
    warm = PrimeSieve()
    warm.nth_prime(10)
    cold = PrimeSieve()
    assert cold.factorize(n).factors == warm.factorize(n).factors == factors
    assert (cold._limit, warm._limit) == (1, 10**6)  # factorize reads no table


def test_concurrent_readers_and_growth():
    sieve = PrimeSieve(initial_bound=10, ceiling=10**6)
    results: dict[int, list[tuple[int, int]]] = {}

    def worker(ident: int):
        rng = random.Random(ident)
        out = []
        for _ in range(200):
            m = rng.randrange(1, 2000)
            p = sieve.nth_prime(m)
            out.append((p, sieve.prime_index(p)))
        results[ident] = out

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-build too
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)

    assert len(results) == len(threads)
    for ident, values in results.items():
        rng = random.Random(ident)
        for got in values:
            m = rng.randrange(1, 2000)
            assert got == (nth_prime(m), m)


@cache
def _reference_primes(limit: int) -> list[int]:
    """Every prime <= limit, from a plain sieve of Eratosthenes."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
    return [n for n, flag in enumerate(flags) if flag]


_REF_LIMIT = 1_100_000  # past the first 2**18-odd-number segment


@settings(max_examples=60, deadline=None)
@given(
    initial=st.integers(4, 5000),
    ceiling=st.integers(5000, _REF_LIMIT),
    queries=st.lists(
        st.tuples(st.sampled_from(("nth", "index", "factor")), st.floats(0, 1)),
        min_size=1,
        max_size=25,
    ),
)
def test_sieve_matches_a_plain_eratosthenes_list(initial, ceiling, queries):
    """Answers agree with a reference list, whatever the order of the queries.

    Small bounds make the sieve grow many times, across count blocks and
    sieving segments; the random order mixes cold and warm sieves.
    """
    ref = _reference_primes(_REF_LIMIT)
    primes_below = ref[: bisect_right(ref, ceiling)]
    sieve = PrimeSieve(initial_bound=initial, ceiling=ceiling)
    for kind, u in queries:
        if kind == "nth":
            m = 1 + int(u * (len(primes_below) + 3))
            if m <= len(primes_below):
                assert sieve.nth_prime(m) == primes_below[m - 1]
            else:
                with pytest.raises(CapacityExceeded):
                    sieve.nth_prime(m)
        elif kind == "index":
            p = int(u * (ceiling + 3))
            i = bisect_right(primes_below, p)
            if p > ceiling:
                with pytest.raises(CapacityExceeded):
                    sieve.prime_index(p)
            elif i and primes_below[i - 1] == p:
                assert sieve.prime_index(p) == i
            else:
                with pytest.raises(NotPrime):
                    sieve.prime_index(p)
        else:
            n = 1 + int(u**3 * ceiling**2)  # up to ceiling**2, mostly small
            factors, m = [], n
            for p in ref:
                if p * p > m:
                    break
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                if k:
                    factors.append((p, k))
            if m > 1:
                factors.append((m, 1))
            assert sieve.factorize(n).factors == tuple(factors)


def test_sieving_to_twenty_million_stays_compact():
    sieve = PrimeSieve()
    tracemalloc.start()
    try:
        assert sieve.prime_index(19999999) == 1270607
        assert sieve.nth_prime(1270607) == 19999999
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_range_sieve_memory_stays_one_segment():
    tracemalloc.start()
    try:
        assert sum(1 for r in smallest_prime_factors(1, 4 * 10**6) if not r) == 283147
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


_PQ = 1000003 * 999999999999999989  # a prime past the sieve times one past the ceiling


def _answer(sieve, query):
    """The sieve's answer to one query, or the error it raised."""
    kind, x = query
    try:
        if kind == "factor":
            return sieve.factorize(x).factors
        if kind == "index":  # the largest prime factor of a number below 10**8
            return sieve.prime_index(sieve.factorize(x % 10**8 + 2).factors[-1][0])
        return sieve.nth_prime(x % 10**6 + 1)
    except (CapacityExceeded, NotPrime) as exc:
        return type(exc), str(exc), getattr(exc, "needed", None)


@settings(max_examples=30, deadline=None)
@given(
    queries=st.lists(
        st.tuples(
            st.sampled_from(("factor", "index", "nth")),
            st.one_of(
                st.lists(st.integers(1, 10**9), min_size=1, max_size=3).map(math.prod),
                st.just(_PQ),
            ),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_fresh_and_warm_sieves_agree(queries):
    """A sieve's answers do not depend on the queries it answered before."""
    warm = PrimeSieve()
    answers = [_answer(warm, q) for q in queries]
    backwards = PrimeSieve()
    assert [_answer(backwards, q) for q in reversed(queries)] == answers[::-1]
    assert [_answer(PrimeSieve(), q) for q in queries] == answers
    # Built exactly when a prime_index or nth_prime call asked for the table
    # (nth_prime(1) is answered without it).
    asked = any(kind == "index" or (kind == "nth" and x % 10**6) for kind, x in queries)
    assert warm._limit == backwards._limit == (10**6 if asked else 1)


def _factors_or_error(sieve, n):
    try:
        return sieve.factorize(n)
    except CapacityExceeded as exc:
        return str(exc), exc.needed, exc.limit


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(
        st.integers(1, 10**12),
        st.sampled_from((2**400 * 3**5, 1009 * 1013, 1021 * 1031, _PQ)),
    )
)
def test_factorize_reads_no_table_and_ignores_the_bound(n):
    """factorize is a function of n and the ceiling alone, and builds nothing."""
    for ceiling in (1000, 10**9):
        sieves = [PrimeSieve(b, ceiling) for b in (4, 100, 1000, 10**6) if b <= ceiling]
        answers = [_factors_or_error(sieve, n) for sieve in sieves]
        assert answers == answers[:1] * len(sieves), (n, ceiling)
        assert [sieve._limit for sieve in sieves] == [1] * len(sieves)


def test_a_prime_past_the_sieve_times_one_past_the_ceiling():
    want = ((1000003, 1), (999999999999999989, 1))
    assert PrimeSieve().factorize(_PQ).factors == want
    warm = PrimeSieve()
    assert warm.prime_index(1000003) == 78499
    assert warm.factorize(_PQ).factors == want


def test_two_primes_past_a_small_ceiling_raise_cold_and_warm():
    n = 1009 * 1013
    warm = PrimeSieve(initial_bound=100, ceiling=1000)
    assert warm.nth_prime(168) == 997
    assert warm.factorize(997 * 1009).factors == ((997, 1), (1009, 1))
    for sieve in (PrimeSieve(initial_bound=100, ceiling=1000), warm):
        with pytest.raises(CapacityExceeded) as exc:
            sieve.factorize(n)
        assert str(exc.value) == f"factoring {n} needs primes past the ceiling 1000"
        assert (exc.value.needed, exc.value.limit) == (1010, 1000)
        assert sieve._limit == (100 if sieve is warm else 1)


def test_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(15)
    sieve = PrimeSieve()
    for bound, draws in ((10**7, 8), (10**9, 3)):
        for _ in range(draws):
            p = sympy.prevprime(rng.randrange(3, bound))
            assert sieve.prime_index(p) == sympy.primepi(p), p
            m = rng.randrange(1, sympy.primepi(bound))
            assert sieve.nth_prime(m) == sympy.prime(m), m
    for bound in (10**9, 10**18):
        for _ in range(25):
            n = rng.randrange(1, bound)
            assert dict(sieve.factorize(n).factors) == sympy.factorint(n), n
        for _ in range(5):
            p, q = (sympy.prevprime(rng.randrange(3, math.isqrt(bound))) for _ in "pq")
            assert dict(sieve.factorize(p * q).factors) == sympy.factorint(p * q)
    assert sieve._limit == 10**6


_TWO_PAST_THE_CEILING = 1000000000039 * 3000000000013  # rho's budget cannot split it


class _CountedModulus(int):
    """An odd modulus that counts the reductions made by it: two per rho step."""

    reductions = 0

    def __rmod__(self, other):
        _CountedModulus.reductions += 1
        return other % int(self)


def test_rho_stops_at_its_budget():
    _CountedModulus.reductions = 0
    assert _rho(_CountedModulus(_TWO_PAST_THE_CEILING), 1000) == 0
    assert _CountedModulus.reductions == 2 * 1000


def test_an_unsplit_composite_past_the_ceiling_raises_within_the_budget():
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded) as exc:
        PrimeSieve().factorize(_TWO_PAST_THE_CEILING)
    elapsed = time.perf_counter() - start
    assert exc.value.limit == 10**9
    # 16 * sqrt(10**9) + 4096 rho steps take about 0.4 s on a 2-vCPU host.
    assert elapsed < 4, elapsed
