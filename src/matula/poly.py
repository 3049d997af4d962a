"""Dense integer-coefficient polynomials in one variable.

Coefficients are arbitrary-precision ints, index = exponent, stored with
no trailing zeros.  The zero polynomial has an empty coefficient tuple
and degree None.  All arithmetic is exact.
"""

from __future__ import annotations

from operator import add, neg, sub
from typing import Iterable

from .errors import InvalidInput


def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _wrap(coeffs: tuple[int, ...]) -> "IntPolynomial":
    """An IntPolynomial over coeffs, which must have no trailing zero."""
    p = object.__new__(IntPolynomial)
    p.coeffs = coeffs
    return p


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _normalize(coeffs)

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "IntPolynomial":
        if exponent < 0:
            raise InvalidInput(f"exponent must be >= 0, got {exponent}")
        if not coefficient:
            return cls()
        return _wrap((0,) * exponent + (coefficient,))

    # -- ring arithmetic ------------------------------------------------
    # Only a sum or difference of equal-length operands can cancel its
    # leading coefficient; every other result is built already normalized.

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(a) == len(b):
            return IntPolynomial(map(add, a, b))
        return _wrap((*map(add, a, b), *a[len(b) :]))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) == len(b):
            return IntPolynomial(map(sub, a, b))
        if len(a) > len(b):
            return _wrap((*map(sub, a, b), *a[len(b) :]))
        return _wrap((*map(sub, a, b), *map(neg, b[len(a) :])))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        # The leading coefficient is a[-1] * b[-1], which is not 0.
        return _wrap(tuple(out))

    __rmul__ = __mul__

    def __neg__(self):
        return _wrap(tuple(map(neg, self.coeffs)))

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _normalize((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- queries ---------------------------------------------------------

    def degree(self) -> int | None:
        """Highest exponent with a nonzero coefficient; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, k: int) -> int:
        if k < 0:
            raise InvalidInput(f"coefficient index must be >= 0, got {k}")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def eval_at_one(self) -> int:
        return sum(self.coeffs)

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def even_part(self) -> "IntPolynomial":
        return IntPolynomial(c if k % 2 == 0 else 0 for k, c in enumerate(self.coeffs))

    def odd_part(self) -> "IntPolynomial":
        return IntPolynomial(c if k % 2 == 1 else 0 for k, c in enumerate(self.coeffs))

    def scale_by_x(self, power: int = 1) -> "IntPolynomial":
        """Multiply by x**power."""
        if power < 0:
            raise InvalidInput(f"power must be >= 0, got {power}")
        if not self.coeffs:
            return self
        return _wrap((0,) * power + self.coeffs)

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        """Render as "c0 + c1*x + c2*x^2", lowest degree first, zero terms omitted."""
        if not self.coeffs:
            return "0"
        # Every term gets a "+ " or "- " sign; the first one's is then
        # rewritten as "" or "-".
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                if c > 0:
                    sign = "+"
                else:
                    sign = "-"
                    c = -c
                if k > 1:
                    parts.append(f"{sign} x^{k}" if c == 1 else f"{sign} {c}*x^{k}")
                elif k:
                    parts.append(f"{sign} x" if c == 1 else f"{sign} {c}*x")
                else:
                    parts.append(f"{sign} {c}")
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"


def _coerce(value):
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    return NotImplemented


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))
