import math
import random
import threading

import pytest

from matula.errors import CapacityExceeded, InvalidInput, NotPrime
from matula.primes import (
    PrimeSieve,
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
        assert smallest_prime_factors(lo, hi) == want
    assert smallest_prime_factors(5, 3) == []


def test_fresh_sieve_grows_lazily():
    sieve = PrimeSieve(initial_bound=10, ceiling=10**6)
    assert sieve.nth_prime(25) == 97
    assert sieve.prime_index(541) == 100
    assert sieve.factorize(2 * 3 * 541).factors == ((2, 1), (3, 1), (541, 1))


def test_capacity_nth_prime():
    sieve = PrimeSieve(initial_bound=10, ceiling=100)
    assert sieve.nth_prime(25) == 97
    with pytest.raises(CapacityExceeded):
        sieve.nth_prime(26)  # p_26 = 101 > ceiling


def test_capacity_prime_index():
    sieve = PrimeSieve(initial_bound=10, ceiling=100)
    with pytest.raises(CapacityExceeded):
        sieve.prime_index(101)


def test_capacity_factorize():
    sieve = PrimeSieve(initial_bound=10, ceiling=100)
    # smallest factor is 10007, past any prime the sieve may ever hold
    with pytest.raises(CapacityExceeded):
        sieve.factorize(10007**2)
    # still fine when sqrt fits under the ceiling
    assert sieve.factorize(9973).factors == ((9973, 1),)


def test_concurrent_readers_and_growth():
    sieve = PrimeSieve(initial_bound=10, ceiling=10**6)
    results: dict[int, list[int]] = {}

    def worker(ident: int):
        rng = random.Random(ident)
        out = []
        for _ in range(200):
            m = rng.randrange(1, 2000)
            out.append(sieve.nth_prime(m))
        results[ident] = out

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()

    for ident, values in results.items():
        rng = random.Random(ident)
        for got in values:
            assert got == nth_prime(rng.randrange(1, 2000))
