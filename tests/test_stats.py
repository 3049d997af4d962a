import math
import random
import re
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import primes, stats
from matula.errors import (
    CapacityExceeded,
    InternalIntegrityError,
    InvalidInput,
    UnsupportedName,
)
from matula.oracle import _float_close, analyze, compare_all, oracle_value
from matula.poly import X, ZERO, IntPolynomial
from matula.primes import PrimeSieve
from matula.stats import (
    _POWER_BITS,
    DESCRIPTIONS,
    OEIS_IDS,
    STATISTICS,
    StatName,
    StatsEngine,
)
from matula.tree import decode

S = StatName


@pytest.fixture(scope="module")
def engine():
    return StatsEngine()


def test_base_values(engine):
    assert engine.compute(S.V, 1) == 1
    assert engine.compute(S.E, 1) == 0
    assert engine.compute(S.TW, 2) == 1
    assert engine.compute(S.PV, 2) == 2
    assert engine.compute(S.VL, 1) == 1
    assert engine.compute(S.RST, 1) == 1
    assert engine.compute(S.ST, 1) == 1
    assert engine.compute(S.NK, 1) == 0
    assert engine.compute(S.NK, 2) == 1
    assert engine.compute(S.MZ1, 1) == 0
    assert engine.compute(S.MZ2, 1) == 0
    assert engine.compute(S.PWP, 1) == ZERO
    assert engine.compute(S.WP, 1) == ZERO
    assert engine.compute(S.DSP, 1) == IntPolynomial((1,))
    assert engine.compute(S.EDP, 1) == IntPolynomial((1,))


def test_lowest_leaf_level_convention(engine):
    # single vertex has no leaf; 0 keeps the 2-vertex tree at level 1
    assert engine.compute(S.LLL, 1) == 0
    assert engine.compute(S.LLL, 2) == 1
    assert engine.compute(S.LLL, 4) == 1


def test_worked_example_values(engine):
    assert engine.compute(S.EDP, 987654321) == IntPolynomial((15, 9, 5))
    assert engine.compute(S.V, 987654321) == 29
    assert engine.compute(S.EXIT_MAX, 987654321) == 2
    assert engine.compute(S.EXIT_MAX_COUNT, 987654321) == 5


def test_five_vertex_path_values(engine):
    # decode(9) is the path on 5 vertices; values confirmed by the oracle
    assert engine.compute(S.DSP, 9) == IntPolynomial((0, 2, 3))
    assert engine.compute(S.W, 9) == 20
    assert engine.compute(S.NK, 9) == 8
    assert engine.compute(S.MZ1, 9) == 64
    assert engine.compute(S.POLARITY, 9, k=3) == 2
    assert engine.compute(S.HYPER_W, 9) == 35


def test_wiener_polynomial_of_three_vertex_star(engine):
    assert engine.compute(S.WP, 4) == IntPolynomial((0, 2, 1))


def test_a_alpha_values(engine):
    assert engine.compute(S.A_ALPHA, 1, alpha=1) == 0
    assert engine.compute(S.A_ALPHA, 4, alpha=1) == 2
    assert engine.compute(S.A_ALPHA, 2, alpha=3) == 1
    # exact negative exponent stays rational
    assert engine.compute(S.A_ALPHA, 9, alpha=-1) == Fraction(1, 2) + Fraction(1, 2)
    assert isinstance(engine.compute(S.A_ALPHA, 4, alpha=-0.5), float)


def test_randic_values(engine):
    assert engine.compute(S.R_ALPHA, 2, alpha=-0.5) == pytest.approx(1.0, abs=1e-12)
    # path on 5 vertices: 2 edges of (1*2), 2 edges of (2*2)
    assert engine.compute(S.R_ALPHA, 9, alpha=-0.5) == pytest.approx(
        1.0 + math.sqrt(2.0), rel=1e-12
    )
    assert engine.compute(S.R_ALPHA, 9, alpha=-1) == Fraction(3, 2)
    for n in range(1, 300):
        assert engine.compute(S.R_ALPHA, n, alpha=1) == engine.compute(S.Z2, n)


def test_multiplicative_square_identity(engine):
    for n in range(1, 400):
        assert engine.compute(S.MZ1, n) == engine.compute(S.NK, n) ** 2


def test_partial_wiener_polynomial_encodes_levels(engine):
    for n in range(1, 400):
        f = engine.compute(S.PWP, n)
        h = engine.compute(S.H, n)
        assert (f.degree() or 0) == h
        assert f.eval_at_one() == engine.compute(S.E, n)
        assert f.derivative().eval_at_one() == engine.compute(S.PL, n)
        for k in range(0, h + 2):
            assert engine.compute(S.LEVEL_COUNT, n, k=k) == f.coefficient(k)


def test_wiener_polynomial_encodes_distances(engine):
    for n in range(1, 400):
        g = engine.compute(S.WP, n)
        assert (g.degree() or 0) == engine.compute(S.DM, n)
        assert g.derivative().eval_at_one() == engine.compute(S.W, n)


def test_degree_sequence_polynomial_identities(engine):
    for n in range(1, 400):
        h = engine.compute(S.DSP, n)
        assert h.eval_at_one() == engine.compute(S.V, n)
        assert (h.degree() or 0) == engine.compute(S.MD, n)
        assert h.coefficient(1) == engine.compute(S.PV, n)
        bv = engine.compute(S.BV, n)
        assert sum(h.coefficient(d) for d in range(3, len(h.coeffs))) == bv
        if n >= 2:  # the subtraction form miscounts the degree-0 root of n=1
            assert h.eval_at_one() - h.coefficient(1) - h.coefficient(2) == bv


def test_even_and_odd_distance_sums(engine):
    for n in range(1, 400):
        assert (
            engine.compute(S.SUM_EVEN, n) + engine.compute(S.SUM_ODD, n)
            == engine.compute(S.W, n)
        )


def test_exit_distance_coefficients_nonincreasing(engine):
    for n in range(1, 400):
        coeffs = engine.compute(S.EDP, n).coeffs
        assert all(a >= b for a, b in zip(coeffs, coeffs[1:]))


def test_exit_scalars_follow_polynomial(engine):
    for n in (1, 2, 9, 12, 360, 987654321):
        m = engine.compute(S.EDP, n)
        assert engine.compute(S.EXIT_SUM, n) == m.derivative().eval_at_one()
        assert engine.compute(S.EXIT_MAX, n) == m.degree()
        assert engine.compute(S.EXIT_MAX_COUNT, n) == m.leading_coefficient()


def test_multiplicative_wiener(engine):
    assert engine.compute(S.MULT_W, 1) == 1
    assert engine.compute(S.MULT_W, 2) == 1
    # path on 5 vertices: distances 1,1,1,1,2,2,2,3,3,4
    assert engine.compute(S.MULT_W, 9) == 2**3 * 3**2 * 4


def test_memoized_and_cold_agree(engine):
    cold = StatsEngine()
    names = [n for n, s in STATISTICS.items() if s.composite and s.param is None]
    for n in (1, 2, 9, 60, 361, 987654321):
        for name in names:
            assert engine.compute(name, n) == cold.compute(name, n)


def test_repeated_calls_hit_the_memo(engine):
    first = engine.compute(S.W, 987654321)
    assert engine.compute(S.W, 987654321) == first


def test_level_count_requires_k(engine):
    with pytest.raises(InvalidInput):
        engine.compute(S.LEVEL_COUNT, 12)
    assert engine.compute(S.LEVEL_COUNT, 12, k=1) == 3


def test_polarity_defaults_to_three(engine):
    assert engine.compute(S.POLARITY, 60) == engine.compute(S.POLARITY, 60, k=3)
    assert engine.compute(S.POLARITY, 9) == 2


def test_parameter_validation(engine):
    with pytest.raises(InvalidInput):
        engine.compute(S.HYPER_W, 9, k=2)  # takes no k
    with pytest.raises(InvalidInput):
        engine.compute(S.V, 9, alpha=1)  # takes no alpha
    with pytest.raises(InvalidInput):
        engine.compute(S.R_ALPHA, 9, k=2)  # takes no k
    with pytest.raises(InvalidInput):
        engine.compute(S.V, 0)
    with pytest.raises(InvalidInput):
        engine.compute(S.V, -3)


def test_compute_dispatch_covers_every_name(engine):
    for name in StatName:
        k = 1 if name is S.LEVEL_COUNT else None
        value = engine.compute(name, 12, k=k)
        assert value is not None


def test_alpha_defaults(engine):
    assert engine.compute(S.A_ALPHA, 12) == engine.compute(S.A_ALPHA, 12, alpha=1)
    randic = engine.compute(S.R_ALPHA, 12, alpha=-0.5)
    assert engine.compute(S.R_ALPHA, 12) == pytest.approx(randic)
    assert engine.compute(S.R_ALPHA, 12, alpha=Fraction(-1, 2)) == pytest.approx(randic)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", [S.NK, S.MZ1, S.MZ2])
def test_degree_check_catches_a_wrong_memoized_value(name, warm):
    engine = StatsEngine()
    if warm:
        assert engine.compute(name, 60) != 7
    engine._memo.setdefault((name.value, None), {})[60] = 7
    message = rf"^{name.value}\(60\): recursion gave 7, degree multiset gives \d+$"
    with pytest.raises(InternalIntegrityError, match=message):
        engine.compute(name, 60)


@pytest.mark.parametrize("n", [5, 6], ids=["prime-rule", "composite-rule"])
@pytest.mark.parametrize("name", [S.NK, S.MZ1, S.MZ2])
def test_inexact_division_is_an_integrity_error(name, n):
    # Omega(3) is 1; at 3 the rules would then divide by 3 where the
    # value is no multiple of 3, at 5 = p_3 (t = 3) and at 6 = 2 * 3.
    engine = StatsEngine()
    engine._memo.setdefault(("OMEGA", None), {})[3] = 3
    message = rf"^{name.value}\({n}\) came out non-integral: \d+/\d+$"
    with pytest.raises(InternalIntegrityError, match=message):
        engine.compute(name, n)
    if n == 6:
        with pytest.raises(InternalIntegrityError, match=message):
            engine.composite_value(name, 2, 3)


# The polynomial rules in IntPolynomial arithmetic: (prime rule at t,
# composite rule at r * s), reading the engine's values through f and
# Omega through w.
_monomial = IntPolynomial.monomial
_REFERENCE_RULES = {
    S.PWP: (lambda t, f, w: X + f(S.PWP, t).scale_by_x(),
            lambda r, s, f, w: f(S.PWP, r) + f(S.PWP, s)),
    S.WP: (lambda t, f, w: f(S.WP, t) + f(S.PWP, t).scale_by_x() + X,
           lambda r, s, f, w: f(S.WP, r) + f(S.WP, s) + f(S.PWP, r) * f(S.PWP, s)),
    S.DSP: (lambda t, f, w: f(S.DSP, t) + _monomial(w(t)) * (X - 1) + X,
            lambda r, s, f, w: (f(S.DSP, r) + f(S.DSP, s) - _monomial(w(r))
                                - _monomial(w(s)) + _monomial(w(r) + w(s)))),
    S.EDP: (lambda t, f, w: f(S.EDP, t) + _monomial(1 + f(S.LLL, t)),
            lambda r, s, f, w: (f(S.EDP, r) + f(S.EDP, s)
                                - _monomial(max(f(S.LLL, r), f(S.LLL, s))))),
}
_SPLIT_PARTS = st.integers(2, 10**4) | st.sampled_from([2**300, 3**100, 5**60 * 7**20])


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(list(_REFERENCE_RULES)), t=st.integers(1, 10**4),
       r=_SPLIT_PARTS, s=_SPLIT_PARTS)
def test_packed_rules_match_polynomial_arithmetic(name, t, r, s):
    engine = StatsEngine()
    f = engine.compute

    def w(m):
        return primes.factorize(m).omega

    prime_rule, composite_rule = _REFERENCE_RULES[name]
    assert f(name, primes.nth_prime(t)) == prime_rule(t, f, w)
    want = composite_rule(r, s, f, w)
    assert engine.composite_value(name, r, s) == want
    assert f(name, r * s) == want


def test_a_narrow_slot_refuses_what_it_cannot_hold(monkeypatch):
    names = (S.PWP, S.WP, S.DSP, S.EDP, S.NK, S.HYPER_W)
    want = [StatsEngine().compute(name, n) for name in names for n in range(1, 128)]
    # n of 7 bits has V(n) <= 15 and coefficients <= C(15, 2) < 2**8
    monkeypatch.setattr(stats, "_SLOT", 8)
    engine = StatsEngine()
    assert [engine.compute(name, n) for name in names for n in range(1, 128)] == want
    message = "^n has 8 bits; the 8-bit slots of packed polynomials hold n of at most 7 bits$"
    with pytest.raises(InternalIntegrityError, match=message):
        engine.compute(S.WP, 128)
    with pytest.raises(InternalIntegrityError, match="^n has 21 bits"):
        engine.compute(S.WP, 2**20)
    with pytest.raises(InternalIntegrityError, match="^n has 21 bits"):
        engine.fill(S.WP, 1, 2**20)
    with pytest.raises(InternalIntegrityError, match="^n has 21 bits"):
        engine.composite_value(S.WP, 2**10, 2**10)


@pytest.mark.parametrize("name, read", [(S.WP, "WP"), (S.HYPER_W, "WP"), (S.NK, "DSP")])
def test_a_negative_packed_value_is_an_integrity_error(name, read):
    engine = StatsEngine()
    engine._memo.setdefault((read, None), {})[60] = -5  # sabotage the live memo
    with pytest.raises(InternalIntegrityError, match="^a packed polynomial came out negative: -5$"):
        engine.compute(name, 60)


def test_memo_hits_validate_like_cold_calls():
    cold, warm = StatsEngine(), StatsEngine()
    warm.fill(S.V, 1, 20)
    warm.fill(S.R_ALPHA, 1, 20)
    cases = [
        (S.V, True, {}, "n must be a positive integer, got True"),
        (S.V, 0, {}, "n must be a positive integer, got 0"),
        (S.V, 2.0, {}, "n must be a positive integer, got 2.0"),
        (S.V, 9, {"alpha": 1}, "V takes no alpha parameter"),
        (S.R_ALPHA, 9, {"k": 2}, "R_ALPHA takes no k parameter"),
    ]
    for name, n, kwargs, message in cases:
        for engine in (warm, cold):
            with pytest.raises(InvalidInput) as exc:
                engine.compute(name, n, **kwargs)
            assert str(exc.value) == message

    class Int(int):
        pass

    assert warm.compute(S.V, Int(9)) == cold.compute(S.V, 9) == 5
    warm.compute(S.NK, 60)
    assert warm.compute(S.NK, Int(60)) == cold.compute(S.NK, 60)


def _engine(warm: bool) -> StatsEngine:
    """A new engine; a warm one has had compare_all's walk over n <= 60."""
    engine = StatsEngine()
    if warm:
        for n in range(1, 61):
            assert compare_all(n, engine) == []
    return engine


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_every_spelling_of_an_alpha_gives_one_value_and_type(warm):
    spellings = {1: (1, 1.0, Fraction(1), Fraction(2, 2)),
                 -0.5: (-0.5, Fraction(-1, 2), Fraction(-2, 4))}
    reference = StatsEngine()
    for canonical, alphas in spellings.items():
        for alpha in alphas:
            engine = _engine(warm)  # a cold one meets this spelling first
            for name in (S.A_ALPHA, S.R_ALPHA):
                for n, r in ((12, 3), (60, 6)):
                    want = (reference.compute(name, n, alpha=canonical),
                            reference.composite_value(name, r, n // r, alpha=canonical))
                    got = (engine.compute(name, n, alpha=alpha),
                           engine.composite_value(name, r, n // r, alpha=alpha))
                    assert got == want, alpha
                    assert [type(v) for v in got] == [type(v) for v in want], alpha


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_bool_alpha_is_refused_cold_and_warm(warm):
    engine = _engine(warm)
    for name in (S.A_ALPHA, S.R_ALPHA):
        for alpha in (True, False):
            with pytest.raises(InvalidInput, match="^alpha must be a number$"):
                engine.compute(name, 12, alpha=alpha)
            with pytest.raises(InvalidInput, match="^alpha must be a number$"):
                engine.composite_value(name, 3, 4, alpha=alpha)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_non_finite_alpha_is_refused_cold_and_warm(warm):
    engine = _engine(warm)
    an = analyze(decode(12))
    huge = Fraction(10**400, 3)  # no float holds it
    cases = [(a, f"alpha must be a finite number, got {a!r}")
             for a in (math.inf, -math.inf, math.nan)]
    cases.append((huge, f"alpha {huge} overflows a float"))
    for name in (S.A_ALPHA, S.R_ALPHA):
        for alpha, message in cases:
            message = f"^{re.escape(message)}$"
            with pytest.raises(InvalidInput, match=message):
                engine.compute(name, 12, alpha=alpha)
            with pytest.raises(InvalidInput, match=message):
                engine.composite_value(name, 3, 4, alpha=alpha)
            with pytest.raises(InvalidInput, match=message):
                oracle_value(an, name, alpha=alpha)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_memo_hits_refuse_parameters_like_cold_calls(warm):
    engine = _engine(warm)
    cases = [
        (S.V, {"alpha": 1}, "V takes no alpha parameter"),
        (S.HYPER_W, {"alpha": 1}, "HYPER_W takes no alpha parameter"),
        (S.POLARITY, {"alpha": 2}, "POLARITY takes no alpha parameter"),
        (S.V, {"k": 1}, "V takes no k parameter"),
        (S.R_ALPHA, {"k": 1}, "R_ALPHA takes no k parameter"),
        (S.HYPER_W, {"k": 1}, "HYPER_W takes no k parameter"),
        (S.POLARITY, {"k": -1}, "k must be >= 0, got -1"),
        (S.LEVEL_COUNT, {"k": -1}, "k must be >= 0, got -1"),
        (S.LEVEL_COUNT, {}, "LEVEL_COUNT requires k"),
        # Decimal(1) == 1, as a key too, but it is no alpha
        (S.A_ALPHA, {"alpha": Decimal(1)}, "alpha must be a number, got Decimal('1')"),
        (S.R_ALPHA, {"alpha": Decimal(1)}, "alpha must be a number, got Decimal('1')"),
    ]
    for name, kwargs, message in cases:
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            engine.compute(name, 12, **kwargs)
        if "alpha" in kwargs:  # composite_value takes no k
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                engine.composite_value(name, 3, 4, **kwargs)
    with pytest.raises(InvalidInput, match="^V takes no alpha parameter$"):
        engine.composite_value(S.V, 3, 4, alpha=1)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_engine_and_oracle_refuse_a_bad_k_alike(warm):
    engine = _engine(warm)
    an = analyze(decode(9))

    class Int(int):
        pass

    cases = [
        (2.0, "k must be an integer, got 2.0"),
        ("2", "k must be an integer, got '2'"),
        (True, "k must be an integer, got True"),
        (-1, "k must be >= 0, got -1"),
        (Int(2), "k must be an integer, got 2"),  # == 2, as a key too
    ]
    for name in (S.POLARITY, S.LEVEL_COUNT):
        for k, message in cases:
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                engine.compute(name, 9, k=k)
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                oracle_value(an, name, k=k)
        # composite_value takes no k, and a k statistic has no split to check
        with pytest.raises(InvalidInput, match=f"^{name.value} has no composite-case rule$"):
            engine.composite_value(name, 3, 3)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_integer_alpha_values_are_ints(alpha):
    engine = StatsEngine()
    for n in range(1, 120):
        an = analyze(decode(n))
        for name in (S.A_ALPHA, S.R_ALPHA):
            value = engine.compute(name, n, alpha=alpha)
            assert type(value) is int
            assert value == oracle_value(an, name, alpha=alpha)


@pytest.mark.parametrize("name", [S.A_ALPHA, S.R_ALPHA])
def test_float_alpha_overflow_is_invalid_input(name):
    engine = StatsEngine()
    message = r"^3\*\*1000\.5 overflows a float; alpha 1000\.5 is too large$"
    with pytest.raises(InvalidInput, match=message):
        engine.compute(name, 7, alpha=Fraction(2001, 2))
    with pytest.raises(InvalidInput, match=message):
        engine.fill(name, 1, 8, alpha=Fraction(2001, 2))
    assert isinstance(engine.compute(name, 7, alpha=Fraction(-2001, 2)), float)


@pytest.mark.parametrize("name", [S.A_ALPHA, S.R_ALPHA])
def test_integer_alpha_past_the_power_bound_is_invalid_input(name):
    # The path 3: A sums 2**alpha over one vertex, R over two edges; 2 has
    # bit length 2.
    engine = StatsEngine()
    terms = 1 if name is S.A_ALPHA else 2
    largest = _POWER_BITS // 2
    assert engine.compute(name, 3, alpha=largest) == terms * 2**largest
    assert engine.compute(name, 3, alpha=-largest) == Fraction(terms, 2**largest)
    for alpha in (largest + 1, -largest - 1, 10**12):
        with pytest.raises(InvalidInput, match=rf"^2\*\*{alpha} would exceed"):
            engine.compute(name, 3, alpha=alpha)
        with pytest.raises(InvalidInput, match=rf"^2\*\*{alpha} would exceed"):
            engine.fill(name, 1, 8, alpha=alpha)
    assert engine.compute(name, 2, alpha=10**12) == 1  # the one degree is 1


# One list of alphas for the engine, the split and the oracle: exact and
# float, past the float range, and on either side of the exact power bound.
_ALPHAS = (1, 2, -1, Fraction(-1, 2), -0.5, 1100.5, -1100.5, Fraction(10**400, 3),
           _POWER_BITS // 2, _POWER_BITS // 2 + 1, -(_POWER_BITS // 2 + 1), 10**12)


def _outcome(call, *args, **kw):
    try:
        return call(*args, **kw)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", [S.A_ALPHA, S.R_ALPHA])
def test_the_oracle_refuses_the_powers_the_engine_refuses(name):
    # Every power base of 3 (a path rooted at an end) and of 4 (a root with
    # two leaves) is 1 or 2, so a refusal names the same base on all sides.
    outcomes = {}
    for n in (3, 4):
        an = analyze(decode(n))
        for alpha in _ALPHAS:
            want = outcomes[n, alpha] = _outcome(StatsEngine().compute, name, n, alpha=alpha)
            sides = [_outcome(oracle_value, an, name, alpha=alpha)]
            if n == 4:
                sides.append(_outcome(StatsEngine().composite_value, name, 2, 2, alpha=alpha))
            for got in sides:
                if type(want) is float:
                    assert type(got) is float and _float_close(got, want), (n, alpha, got)
                else:
                    assert (type(got), got) == (type(want), want), (n, alpha)
    largest, big = _POWER_BITS // 2, Fraction(10**400, 3)
    exact, inexact = "would exceed", "overflows a float"
    for n in (3, 4) if name is S.R_ALPHA else (3,):  # A_ALPHA at 4 reads only 1**alpha
        for alpha, refusal in ((largest + 1, exact), (-largest - 1, exact), (10**12, exact),
                               (1100.5, inexact)):
            assert outcomes[n, alpha][0] is InvalidInput
            assert outcomes[n, alpha][1].startswith(f"2**{alpha} {refusal}")
        assert outcomes[n, -1100.5] == 0.0
    assert outcomes[3, big] == outcomes[4, big] == (InvalidInput, f"alpha {big} overflows a float")
    assert oracle_value(analyze(decode(2)), name, alpha=10**12) == 1  # every base is 1


def test_composite_value_split_guard(engine):
    # BV and TW composite rules assume a prime first part
    with pytest.raises(InvalidInput):
        engine.composite_value(S.BV, 4, 3)
    assert engine.composite_value(S.BV, 3, 4) == engine.compute(S.BV, 12)
    with pytest.raises(InvalidInput):
        engine.composite_value(S.V, 1, 12)
    # A split's value stays out of the memos: only canonical values go there.
    fresh = StatsEngine()
    assert (fresh.composite_value(S.W, 6, 2), fresh.composite_value(S.BV, 3, 4)) == (18, 1)
    assert not any(12 in memo for memo in fresh._memo.values())
    assert fresh.compute(S.W, 12) == StatsEngine().compute(S.W, 12)


def test_composite_value_rejects_what_compute_rejects(engine):
    with pytest.raises(InvalidInput, match="^V takes no alpha parameter$"):
        engine.composite_value(S.V, 2, 3, alpha=2)
    with pytest.raises(InvalidInput, match="^A_ALPHA requires alpha$"):
        engine.composite_value(S.A_ALPHA, 2, 3)
    assert engine.composite_value(S.A_ALPHA, 2, 3, alpha=2) == engine.compute(
        S.A_ALPHA, 6, alpha=2
    )


def test_name_parsing():
    assert StatName.from_string("edp") is S.EDP
    assert StatName.from_string("V") is S.V
    assert StatName.from_string("randic") is S.R_ALPHA
    assert StatName.from_string("a") is S.A_ALPHA
    with pytest.raises(UnsupportedName):
        StatName.from_string("nope")


@pytest.mark.parametrize(
    "call",
    [
        lambda: StatsEngine().compute("V", 9),
        lambda: StatsEngine().fill("V", 1, 9),
        lambda: StatsEngine().composite_value("V", 2, 3),
        lambda: oracle_value(analyze(decode(9)), "V"),
    ],
    ids=["compute", "fill", "composite_value", "oracle_value"],
)
def test_a_plain_string_name_is_unsupported(call):
    with pytest.raises(UnsupportedName, match="^unknown statistic 'V'"):
        call()


def test_docs_tables_are_complete():
    for name in StatName:
        assert name in DESCRIPTIONS
        assert name in OEIS_IDS
    assert OEIS_IDS[S.V] == "A061775"
    assert OEIS_IDS[S.E] == "A196050"


def test_deep_powers_need_no_call_stack():
    # 2**2000 is a star with 2000 leaves; its DAG is 2000 nodes deep.  The
    # sieve is cold: sqrt(2**2000) is past its ceiling.
    engine = StatsEngine(PrimeSieve())
    n = 2**2000
    assert engine.compute(S.V, n) == 2001
    assert engine.compute(S.W, n) == 4000000
    assert str(engine.compute(S.WP, n)) == "2000*x + 1999000*x^2"
    assert engine.compute(S.NK, n) == 2000
    assert engine.compute(S.R_ALPHA, n, alpha=-1) == 1


def _fill_cases():
    """(name, alpha keywords) for every statistic, alpha statistics at four alphas."""
    for name, stat in STATISTICS.items():
        if stat.param == "alpha":
            for alpha in (1, 2, -1, Fraction(-1, 2)):
                yield name, {"alpha": alpha}
        else:
            yield name, {}


def _line_values(engine, name, kw, lo, hi):
    """(type, value) of compute() at each n in [lo, hi], as `table` calls it."""
    values = []
    for n in range(lo, hi + 1):
        k = {"k": n % 5} if name is S.LEVEL_COUNT else {}
        v = engine.compute(name, n, **kw, **k)
        values.append((type(v), v))
    return values


def _spy_on_factorize(monkeypatch, sieve):
    """The list of the n that sieve.factorize is asked for from now on."""
    calls = []
    factorize = sieve.factorize
    monkeypatch.setattr(sieve, "factorize", lambda n: calls.append(n) or factorize(n))
    return calls


@pytest.mark.parametrize("lo, hi", [(1, 600), (500, 700), (97, 97)])
def test_fill_gives_the_per_n_values(monkeypatch, lo, hi):
    for name, kw in _fill_cases():
        sieve = PrimeSieve(initial_bound=1000)
        factorized = _spy_on_factorize(monkeypatch, sieve)
        filled = StatsEngine(sieve)
        filled.fill(name, lo, hi, **kw)
        got = _line_values(filled, name, kw, lo, hi)
        if lo == 1:  # neither fill nor the computes after it factorized
            assert not factorized, name
        assert got == _line_values(StatsEngine(), name, kw, lo, hi), (name, kw)


def test_fill_across_segment_boundaries(monkeypatch):
    # Segments of 128 integers: the range sieve's segments start at
    # 1001 + 128 j, so the window crosses eight boundaries.
    per_n = StatsEngine(PrimeSieve())
    want = {n: per_n.compute(S.V, n) for n in range(1001, 2101)}
    monkeypatch.setattr(primes, "_SEGMENT", 64)
    filled = StatsEngine(PrimeSieve(initial_bound=4000))
    filled.fill(S.V, 1001, 2100)
    assert {n: filled._memo["V", None][n] for n in want} == want


def test_fill_on_a_warm_engine():
    rng = random.Random(5)
    names = list(StatName)
    for name, kw in _fill_cases():
        warm = StatsEngine()
        for _ in range(25):
            other, m = rng.choice(names), rng.randrange(1, 800)
            warm.compute(other, m, **_params(other, rng.randrange(4)))
        warm.fill(name, 500, 700, **kw)
        got = _line_values(warm, name, kw, 500, 700)
        assert got == _line_values(StatsEngine(), name, kw, 500, 700), (name, kw)


def _until_capacity(engine, name, lo, hi):
    values = []
    for n in range(lo, hi + 1):
        try:
            values.append(engine.compute(name, n))
        except CapacityExceeded as exc:
            return values, n, str(exc)
    return values, None, None


def test_fill_stops_at_the_sieve_ceiling():
    for name in (S.V, S.W, S.NK, S.WP, S.R_ALPHA, S.HYPER_W):
        per_n = StatsEngine(PrimeSieve(initial_bound=100, ceiling=1000))
        filled = StatsEngine(PrimeSieve(initial_bound=100, ceiling=1000))
        filled.fill(name, 900, 1100)
        want = _until_capacity(per_n, name, 900, 1100)
        message = "indexing prime 1009 needs sieving past the ceiling 1000"
        assert want[1:] == (1009, message)
        assert _until_capacity(filled, name, 900, 1100) == want


def test_fill_memory_tracks_the_range(monkeypatch):
    sieve = PrimeSieve()
    factorized = _spy_on_factorize(monkeypatch, sieve)
    engine = StatsEngine(sieve)
    engine.fill(S.V, 1, 16000)
    assert 2 * len(sieve._state[0]) < 10**6
    assert not factorized
    assert sorted(engine._memo["V", None]) == list(range(1, 16001))


def test_one_factorization_per_chain_head(monkeypatch):
    # One factorization of n fixes its whole composite chain n -> n/q -> ...,
    # so only n and the prime indices not collected yet are factorized.  At
    # 2**3000 the one index is 1, which needs none; at 3**300 * 5**200 they
    # are 2 and 3, and 3 is already on the chain.
    sieve = PrimeSieve()
    factorized = _spy_on_factorize(monkeypatch, sieve)
    engine = StatsEngine(sieve)
    engine.compute(S.V, 2**3000)
    factorized.clear()
    engine.compute(S.E, 2**3000)  # a memo of its own: the chain is walked again
    assert factorized == [2**3000]

    sieve = PrimeSieve()
    factorized = _spy_on_factorize(monkeypatch, sieve)
    StatsEngine(sieve).compute(S.V, 3**300 * 5**200)
    assert len(factorized) <= 3, factorized[:5]


def test_sparse_computes_leave_no_memory_in_the_prime_layer():
    # The engine's memo keeps what it walked; the sieve keeps nothing per n.
    sieve = PrimeSieve()
    sieve.prime_index(2)  # built before tracing
    engine = StatsEngine(sieve)
    tracemalloc.start()
    try:
        for n in range(1, 20001):
            engine.compute(S.V, n)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    in_primes = snapshot.filter_traces([tracemalloc.Filter(True, primes.__file__)])
    assert sum(s.size for s in in_primes.statistics("filename")) < 2**19  # 0.5 MB


def test_fill_rejects_what_compute_rejects():
    engine = StatsEngine()
    with pytest.raises(InvalidInput, match="^W takes no alpha parameter$"):
        engine.fill(S.W, 1, 10, alpha=2)
    with pytest.raises(InvalidInput):
        engine.fill(S.V, 0, 10)


def _params(name, choice):
    if STATISTICS[name].param == "alpha":
        return {"alpha": (1, 2, -1, Fraction(-1, 2))[choice]}
    if name is S.LEVEL_COUNT:
        return {"k": choice}
    return {}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(list(StatName)),
    n=st.integers(1, 10**5),
    choice=st.integers(0, 3),
    warm=st.lists(
        st.tuples(st.sampled_from(list(StatName)), st.integers(1, 10**5)), max_size=12
    ),
    seed=st.integers(0, 2**32),
)
def test_values_do_not_depend_on_evaluation_order(name, n, choice, warm, seed):
    cold = StatsEngine().compute(name, n, **_params(name, choice))

    shuffled = StatsEngine()
    divisors = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    work = warm + [(name, d) for d in divisors] + [(name, n // d) for d in divisors]
    random.Random(seed).shuffle(work)
    for other, m in work:
        shuffled.compute(other, m, **_params(other, choice))

    ascending = StatsEngine()
    for m in sorted({m for _, m in work}):
        ascending.compute(name, m, **_params(name, choice))

    got = [
        e.compute(name, n, **_params(name, choice)) for e in (shuffled, ascending)
    ]
    assert [str(v) for v in got] == [str(cold)] * 2
    assert got == [cold] * 2


_CHAIN_CASES = (
    (S.V, {}),
    (S.DSP, {}),
    (S.NK, {}),
    (S.W, {}),
    (S.A_ALPHA, {"alpha": 2}),
    (S.R_ALPHA, {"alpha": -1}),
)


def _product(exponents):
    return math.prod(p**e for p, e in zip((2, 3, 5, 7), exponents))


@settings(max_examples=40, deadline=None)
@given(exponents=st.tuples(*[st.integers(0, 60)] * 4), data=st.data())
def test_chains_that_stop_at_a_memoized_step(exponents, data):
    # n's chain divides out its 2s first, then its 3s, 5s and 7s: a warmed
    # divisor stops it part way, and a warmed prime index a later head's walk.
    n = _product(exponents)
    divisor = st.tuples(*(st.integers(0, e) for e in exponents)).map(_product)
    work = data.draw(
        st.lists(st.tuples(st.sampled_from(_CHAIN_CASES), divisor | st.integers(1, 4)),
                 max_size=10)
    )
    warm = StatsEngine()
    for (name, kw), m in work:
        warm.compute(name, m, **kw)
    for name, kw in _CHAIN_CASES:
        got, want = warm.compute(name, n, **kw), StatsEngine().compute(name, n, **kw)
        assert (type(got), got) == (type(want), want), name


def test_one_engine_per_thread_over_a_shared_sieve():
    rng = random.Random(8)
    work = [
        (rng.choice(list(StatName)), rng.randrange(1, 30000), rng.randrange(4))
        for _ in range(200)
    ]
    reference = StatsEngine()
    want = [reference.compute(name, n, **_params(name, c)) for name, n, c in work]
    sieve = PrimeSieve(initial_bound=1000)  # built while the threads run
    results: dict[int, list] = {}

    def worker(ident: int):
        engine = StatsEngine(sieve)
        results[ident] = [engine.compute(name, n, **_params(name, c)) for name, n, c in work]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
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
    assert 2 * len(sieve._state[0]) == 1000  # primes past it were answered without growing it
    assert results == {i: want for i in range(len(threads))}


def test_readme_table_matches_the_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = readme.split("## Statistics", 1)[1].split("\n\n")[1].splitlines()[2:]
    table = []
    for row in rows:
        name, _, oeis = (cell.strip() for cell in row.strip("|").split("|"))
        table.append((name, None if oeis == "—" else oeis.split()[0]))
    assert table == [(s.name, s.oeis) for s in STATISTICS.values()]


def test_readme_library_example_runs():
    """Each expression line of the README's Library block gives its comment's value.

    The comment must start with the value's repr (then, optionally, a
    comma and a note), so the example cannot drift from the API.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:  # a statement: an import or an assignment
            exec(code, namespace)
            continue
        value = repr(eval(expression, namespace))
        assert re.fullmatch(re.escape(value) + r"(,.*)?", comment.strip()), line
        checked += 1
    assert checked >= 5
