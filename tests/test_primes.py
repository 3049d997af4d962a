import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from bisect import bisect_right
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import primes
from matula.errors import CapacityExceeded, InvalidInput, NotPrime
from matula.primes import (
    _BLOCK,
    _SEGMENT,
    _STEP,
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
    assert 2 * len(sieve._state[0]) <= 10**6


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


@pytest.mark.parametrize(
    "function, argument",
    [
        (nth_prime, 2.5),
        (nth_prime, True),
        (nth_prime, "3"),
        (prime_index, 2.0),
        (prime_index, True),
        (prime_index, "7"),
        (factorize, 2.5),
        (factorize, True),
        (factorize, "7"),
        (PrimeSieve().factorize, 12.0),
    ],
)
def test_prime_functions_refuse_a_non_integer(function, argument):
    # A bool is an int to Python, but not a prime, an index or a number here.
    with pytest.raises(InvalidInput, match=f"must be an integer, got {argument!r}$"):
        function(argument)


def test_factorize_recomposes():
    for n in range(1, 3000):
        fz = factorize(n)
        assert math.prod(p**k for p, k in fz.factors) == n
        assert fz.omega == sum(k for _, k in fz.factors)
        ps = [p for p, _ in fz.factors]
        assert ps == sorted(ps)
        assert all(factorize(p).omega == 1 for p in ps)


# Products of primes below 2**10 (trial division), below 10**6 and below 2 * 10**7
# (rho), each to a multiplicity of up to 5.
_FACTOR_BOUNDS = (2**10, 10**6, 2 * 10**7)


@settings(max_examples=60, deadline=None)
@given(powers=st.lists(st.tuples(st.sampled_from(_FACTOR_BOUNDS), st.integers(0, 2 * 10**7),
                                 st.integers(1, 5)), max_size=6))
def test_factorize_counts_multiplicities_as_sympy_does(powers):
    sympy = pytest.importorskip("sympy")
    n = math.prod(sympy.prevprime(3 + x % (bound - 2)) ** e for bound, x, e in powers)
    want = sympy.factorint(n)
    assert factorize(n) == (tuple(sorted(want.items())), sum(want.values())), n


@pytest.mark.parametrize("n", [2**3000, 3**300 * 5**200], ids=["2**3000", "3**300*5**200"])
def test_factorize_of_a_long_chain_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    want = sympy.factorint(n)
    assert factorize(n) == (tuple(sorted(want.items())), sum(want.values()))


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
    assert not PrimeSieve(3, 4)._state[0] and not PrimeSieve(10, 10)._state[0]
    sieve = PrimeSieve(initial_bound=10, ceiling=10**6)
    assert not sieve._state[0]  # built on first use
    assert sieve.nth_prime(25) == 97
    assert sieve.prime_index(541) == 100
    assert sieve.factorize(2 * 3 * 541).factors == ((2, 1), (3, 1), (541, 1))
    assert sieve.factorize(541 * 547).factors == ((541, 1), (547, 1))
    assert 2 * len(sieve._state[0]) <= 10  # answered past the bound, which the table never passes


def test_capacity_nth_prime():
    sieve = PrimeSieve(initial_bound=10, ceiling=100)
    assert sieve.nth_prime(25) == 97
    with pytest.raises(CapacityExceeded) as exc:
        sieve.nth_prime(26)  # p_26 = 101 > ceiling
    assert str(exc.value) == "prime #26 lies beyond the sieve ceiling 100"
    assert (exc.value.needed, exc.value.limit) == (26, 100)


def test_capacity_nth_prime_past_the_float_range():
    # m * log(m) overflows a float; the index alone shows p_m > m > ceiling.
    with pytest.raises(CapacityExceeded) as exc:
        PrimeSieve().nth_prime(2**1100)
    assert (exc.value.needed, exc.value.limit) == (2**1100, 10**9)


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
    read = 2 * len(warm._state[0])
    cold = PrimeSieve()
    assert cold.factorize(n).factors == warm.factorize(n).factors == factors
    assert not cold._state[0] and 2 * len(warm._state[0]) == read  # factorize reads no table


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


def test_readers_see_whole_steps_while_the_table_grows(monkeypatch):
    """Threads read the table while others extend it in place, a block at a time."""
    monkeypatch.setattr(primes, "_STEP", _BLOCK)
    monkeypatch.setattr(primes, "_SEGMENT", 2 * _BLOCK)
    ref = _reference_primes(200000)
    sieve = PrimeSieve(initial_bound=200000, ceiling=10**6)
    results: dict[int, list[tuple[int, int]]] = {}

    def worker(ident: int):
        rng = random.Random(ident)
        out = []
        for m in sorted(rng.randrange(1, len(ref) + 1) for _ in range(300)):  # growing reads
            out.append((sieve.nth_prime(m), sieve.prime_index(ref[m - 1])))
        results[ident] = out

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for ident, values in results.items():
        rng = random.Random(ident)
        want = [(ref[m - 1], m) for m in sorted(rng.randrange(1, len(ref) + 1) for _ in values)]
        assert values == want
    assert len(results) == len(threads)


def test_a_flag_is_never_seen_before_its_block_count(monkeypatch):
    """The table grows in place under readers that take no lock, so each segment's
    block counts must be in before its flags: a reader that finds the flags long
    enough must find the counts for them too."""
    monkeypatch.setattr(primes, "_SEGMENT", 2 * _BLOCK)
    ref = _reference_primes(20000)
    counts = array("L", [0])
    read = []

    class Flags(bytearray):
        def __iadd__(self, more):
            super().__iadd__(more)
            z = 2 * len(self)  # the furthest number a reader may now ask about
            read.append(primes._count(self, counts, z) == bisect_right(ref, z))
            return self

    sieve = PrimeSieve(initial_bound=20000, ceiling=10**6)
    sieve._state = (Flags(), counts)
    assert sieve.prime_index(19997) == bisect_right(ref, 19997)
    assert len(read) == 10 and all(read)


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
    ),
    data=st.data(),
)
def test_fresh_and_warm_sieves_agree(queries, data):
    """A sieve's answers and the table it grows do not depend on the queries it
    answered before: the table ends where the query that reads furthest takes
    it, and answers past the bound never take it past the bound."""
    warm = PrimeSieve()
    answers = [_answer(warm, q) for q in queries]
    backwards = PrimeSieve()
    assert [_answer(backwards, q) for q in reversed(queries)] == answers[::-1]
    order = data.draw(st.permutations(range(len(queries))))
    shuffled = PrimeSieve()
    assert [_answer(shuffled, queries[i]) for i in order] == [answers[i] for i in order]
    fresh = [PrimeSieve() for _ in queries]
    assert [_answer(sieve, q) for sieve, q in zip(fresh, queries)] == answers
    furthest = max(2 * len(sieve._state[0]) for sieve in fresh)
    assert {2 * len(sieve._state[0]) for sieve in (warm, backwards, shuffled)} == {furthest}
    assert furthest <= 10**6
    # Only factorize reads no table.
    assert (furthest > 0) == any(kind != "factor" for kind, _ in queries)


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
        assert not any(sieve._state[0] for sieve in sieves)


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
        assert 2 * len(sieve._state[0]) == (100 if sieve is warm else 0)


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
    assert 2 * len(sieve._state[0]) <= 10**6


# x = bound +- 1, around the squares of base primes, near 2*10**6, 2*10**7, 999**3 and
# the ceiling 1000**3; 31607 is the largest prime below sqrt(10**9).
_PI_EDGES = (
    10**6 - 1, 10**6, 10**6 + 1, 1009**2 - 1, 1009**2, 1009**2 + 1, 1999993, 2 * 10**6 - 1,
    2 * 10**6, 2000003, 19999999, 2 * 10**7, 20000003, 999**3 - 1, 999**3, 999**3 + 1,
    31607**2 - 1, 31607**2 + 1, 10**9 - 1, 10**9,
)


def test_pi_past_the_bound_matches_the_reference_list():
    ref = _reference_primes(_REF_LIMIT)
    sieve = PrimeSieve()
    for x in (x for x in _PI_EDGES if x <= _REF_LIMIT):
        assert sieve._pi(x) == bisect_right(ref, x), x
    for p in ref[bisect_right(ref, 10**6) - 3 :][:6]:  # three primes on each side of the bound
        m = bisect_right(ref, p)
        assert (sieve.prime_index(p), sieve.nth_prime(m)) == (m, p)
    assert 2 * len(sieve._state[0]) == 10**6


def _primepi_near(sympy, xs):
    """pi(x) for each x in xs: sympy's primepi once per run of xs at most 2 apart
    (each takes a good part of a second near 10**9), then its isprime below it."""
    pi, top, count = {}, None, 0
    for x in sorted(xs, reverse=True):
        if top is None or top - x > 2:
            top, count = x, int(sympy.primepi(x))
        pi[x] = count - sum(map(sympy.isprime, range(x + 1, top + 1)))
    return pi


def test_pi_past_the_bound_matches_sympy():
    sympy = pytest.importorskip("sympy")
    sieve = PrimeSieve()
    pi = _primepi_near(sympy, _PI_EDGES)
    for x, want in pi.items():
        assert sieve._pi(x) == want, x
    for x in (2 * 10**6, 2 * 10**7, 999**3, 10**9):  # the primes on each side of x
        below, above = int(sympy.prevprime(x)), int(sympy.nextprime(x))
        for p, m in ((below, pi[x - 1]), (above, pi[x] + 1)):
            if p <= 10**9:
                assert (sieve.prime_index(p), sieve.nth_prime(m)) == (m, p), p
    assert 2 * len(sieve._state[0]) == 10**6


@settings(max_examples=40, deadline=None)
@given(initial=st.integers(4, 5000), draws=st.lists(st.floats(0, 1), min_size=1, max_size=4))
def test_pi_past_a_small_bound_matches_the_reference_list(initial, draws):
    """Past a small bound x**(2/3) is mostly past it too, so pi reads a throwaway table."""
    ref = _reference_primes(_REF_LIMIT)
    sieve = PrimeSieve(initial_bound=initial, ceiling=_REF_LIMIT)
    for u in draws:
        x = initial + 1 + int(u * (_REF_LIMIT - initial - 1))
        m = bisect_right(ref, x)
        assert sieve._pi(x) == m, x
        if ref[m - 1] > initial:
            assert (sieve.prime_index(ref[m - 1]), sieve.nth_prime(m)) == (m, ref[m - 1])
    assert 2 * len(sieve._state[0]) - 1 <= initial  # the last odd number sieved


def test_the_table_grows_in_whole_steps_across_a_step_edge(monkeypatch):
    monkeypatch.setattr(primes, "_STEP", _BLOCK)  # 2 * _BLOCK numbers per step
    monkeypatch.setattr(primes, "_SEGMENT", 2 * _BLOCK)  # and a growth spans segments
    ref = _reference_primes(8000)
    edge = 8 * _BLOCK  # the table's fourth step ends at edge - 1
    below, above = ref[bisect_right(ref, edge) - 1], ref[bisect_right(ref, edge)]
    assert below < edge < above
    for order, limits in (((below, above), [edge, edge + 2 * _BLOCK]),
                          ((above, below), [edge + 2 * _BLOCK] * 2)):
        sieve = PrimeSieve(initial_bound=7000, ceiling=10**6)
        got = []
        for p in order:
            assert sieve.prime_index(p) == ref.index(p) + 1
            got.append(2 * len(sieve._state[0]))
        assert got == limits
    ascending, descending = PrimeSieve(7000, 10**6), PrimeSieve(7000, 10**6)
    small = ref[: bisect_right(ref, 7000)]
    assert [ascending.prime_index(p) for p in small] == list(range(1, len(small) + 1))
    assert [descending.prime_index(p) for p in reversed(small)] == list(range(len(small), 0, -1))
    assert [PrimeSieve(7000, 10**6).nth_prime(m) for m in range(1, len(ref) + 1)] == ref
    assert 2 * len(ascending._state[0]) == 2 * len(descending._state[0]) == 7000


def test_small_one_shot_queries_sieve_one_step():
    """decode 12 and stat V 12 index the primes 2 and 3 only, so the table
    grows by one step, not to its bound."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for argv in (["decode", "12"], ["stat", "V", "12"]):
        code = (
            "import sys, matula.cli, matula.primes as P\n"
            "seen = []\n"
            "def spy(lo, hi, segments=P._segments):\n"
            "    seen.append(hi)\n"
            "    return segments(lo, hi)\n"
            "P._segments = spy\n"
            f"matula.cli.main({argv!r})\n"
            "print(max(seen), file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert 3 <= int(proc.stderr) < 2 * _STEP, argv


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
