import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula.errors import InvalidInput
from matula.poly import ONE, X, ZERO, IntPolynomial


def test_addition():
    assert X + X == IntPolynomial((0, 2))


def test_product_of_conjugates():
    assert (X + 1) * (X - 1) == IntPolynomial((-1, 0, 1))


def test_multiplication_by_zero():
    assert (X + X * X) * ZERO == ZERO
    assert not (X * ZERO)


def test_eval_at_one():
    assert IntPolynomial((15, 9, 5)).eval_at_one() == 29
    assert ZERO.eval_at_one() == 0


def test_derivative_at_one():
    assert IntPolynomial((0, 2, 3)).derivative().eval_at_one() == 8
    assert IntPolynomial((7,)).derivative() == ZERO


def test_coefficient_and_degree():
    p = IntPolynomial((0, 2, 3))
    assert p.coefficient(2) == 3
    assert p.coefficient(0) == 0
    assert p.coefficient(99) == 0
    assert p.degree() == 2
    assert ZERO.degree() is None
    with pytest.raises(InvalidInput):
        p.coefficient(-1)


def test_normalization_strips_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()
    assert IntPolynomial((0, 0)) == ZERO


def test_even_odd_split():
    rng = random.Random(777)
    for _ in range(200):
        p = IntPolynomial(rng.randrange(-9, 10) for _ in range(rng.randrange(0, 9)))
        assert p.even_part() + p.odd_part() == p
        assert (
            p.even_part().eval_at_one() + p.odd_part().eval_at_one()
            == p.eval_at_one()
        )
        assert all(c == 0 for k, c in enumerate(p.odd_part().coeffs) if k % 2 == 0)


def test_derivative_product_rule():
    rng = random.Random(4242)
    for _ in range(200):
        p = IntPolynomial(rng.randrange(-5, 6) for _ in range(rng.randrange(0, 7)))
        q = IntPolynomial(rng.randrange(-5, 6) for _ in range(rng.randrange(0, 7)))
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_evaluate_matches_sum():
    p = IntPolynomial((3, 0, -2, 1))
    assert p.evaluate(2) == 3 - 8 + 8
    assert p.evaluate(1) == p.eval_at_one()


def test_scale_by_x():
    assert X.scale_by_x() == IntPolynomial((0, 0, 1))
    assert ONE.scale_by_x(3) == IntPolynomial.monomial(3)
    assert ZERO.scale_by_x(5) == ZERO
    with pytest.raises(InvalidInput):
        X.scale_by_x(-1)


def test_monomial():
    assert IntPolynomial.monomial(0) == ONE
    assert IntPolynomial.monomial(2, 5) == IntPolynomial((0, 0, 5))
    with pytest.raises(InvalidInput):
        IntPolynomial.monomial(-1)


def test_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(X) == "x"
    assert str(IntPolynomial((15, 9, 5))) == "15 + 9*x + 5*x^2"
    assert str(IntPolynomial((0, 2, 3))) == "2*x + 3*x^2"
    assert str(IntPolynomial((-1, 0, 1))) == "-1 + x^2"
    assert str(IntPolynomial((1, -2))) == "1 - 2*x"
    assert str(IntPolynomial((0, 0, -7))) == "-7*x^2"


def test_int_coercion():
    assert 1 + X == IntPolynomial((1, 1))
    assert 2 * X == IntPolynomial((0, 2))
    assert 1 - X == IntPolynomial((1, -1))
    assert X - 1 == IntPolynomial((-1, 1))
    assert sum([X, X, ONE]) == IntPolynomial((1, 2))


def _reference_str(coeffs) -> str:
    """The renderer as first written, kept as the reference for ``__str__``."""
    if not coeffs:
        return "0"
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "x" if mag == 1 else f"{mag}*x"
        else:
            body = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _terms(coeffs) -> dict[int, int]:
    return {k: c for k, c in enumerate(coeffs) if c}


def _combine(p: dict, q: dict, sign: int) -> dict[int, int]:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _product(p: dict, q: dict) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: c for k, c in out.items() if c}


def _coeffs(terms: dict[int, int]) -> tuple[int, ...]:
    return tuple(terms.get(k, 0) for k in range(max(terms, default=-1) + 1))


_small = st.integers(-3, 3)


@st.composite
def _operands(draw):
    """Two coefficient lists; often equal-length with a cancelling tail."""
    a = draw(st.lists(_small, max_size=8))
    b = draw(st.lists(_small, max_size=8))
    if a and draw(st.booleans()):
        tail = draw(st.integers(1, len(a)))
        sign = draw(st.sampled_from([1, -1]))
        head = draw(st.lists(_small, min_size=len(a) - tail, max_size=len(a) - tail))
        b = head + [sign * c for c in a[len(a) - tail :]]
    return a, b


@settings(max_examples=300, deadline=None)
@given(_operands(), st.integers(-4, 4), st.integers(0, 3))
def test_arithmetic_matches_a_reference(operands, c, power):
    a, b = operands
    p, q = IntPolynomial(a), IntPolynomial(b)
    tp, tq, tc = _terms(a), _terms(b), _terms([c])
    shifted = {k + power: v for k, v in tp.items()}
    expected = [
        (p + q, _combine(tp, tq, 1)),
        (p - q, _combine(tp, tq, -1)),
        (q - p, _combine(tq, tp, -1)),
        (p * q, _product(tp, tq)),
        (-p, _combine({}, tp, -1)),
        (p.scale_by_x(power), shifted),
        (p + c, _combine(tp, tc, 1)),
        (c - p, _combine(tc, tp, -1)),
        (p - c, _combine(tp, tc, -1)),
        (c * p, _product(tc, tp)),
        (IntPolynomial.monomial(power, c), _terms([0] * power + [c])),
    ]
    for got, terms in expected:
        assert got.coeffs == _coeffs(terms)
        assert not got.coeffs or got.coeffs[-1] != 0
        assert str(got) == _reference_str(got.coeffs)
