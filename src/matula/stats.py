"""Tree statistics computed directly from the Matula number.

Every statistic is one ``Statistic`` record in ``_RECORDS``, and
``StatName``, ``DESCRIPTIONS`` and ``OEIS_IDS`` are built from the records.
Adding a statistic means one record here, one ``_DEFINITIONS`` entry in
the oracle and one row in the README table.

The engine memoizes one dict per (statistic, alpha), keyed by n.  Every
child of n is smaller than n (t = pi(p) < p, and r, n/r < n for the
composite split), so one stepping loop, ``_run``, fills the memos of a
plan in ascending n from each n's children.  A plan covers one statistic
and what it reads, or several statistics at once, each memo once.  Two
feeders give it those children: the sparse one (``compute``) collects
the part of n's DAG that is not yet memoized; one factorization fixes a
whole composite chain, so it factorizes only n and the prime indices it
meets, and it keeps these heads on a list, so stack depth does not grow
with n; the dense one (``fill``) walks a whole range with a segmented
smallest-prime-factor sieve and a running prime count.  The composite
split is always r = smallest prime factor, which keeps r prime (required
by the BV and TW rules) and makes the recursion shape canonical.

Every value is computed in exact integers where it is one: the
multiplicative statistics (NK, MZ1, MZ2) multiply first and then divide
once through ``_exact``, which raises ``InternalIntegrityError`` instead of
flooring, and A/R at an integer alpha >= 0 are sums of int powers.  Every
``compute`` of a multiplicative statistic also checks its value against
the degree multiset read off DSP.

The polynomial statistics (PWP, WP, DSP, EDP) are memoized Kronecker-
packed: sum c_k x^k is the int sum c_k << _SLOT*k, its value at
x = 2**_SLOT.  That evaluation is a ring homomorphism, so their rules,
subtractions included, are exact int arithmetic.  It decodes uniquely
while every c_k lies in [0, 2**_SLOT): c_k <= C(V, 2), and V(n) <=
1 + 2*log2(n) (by induction: p_t >= sqrt(2)*t and V(r*s) = V(r) + V(s)
- 1), so ``_check_n`` refuses every n of 2**(_SLOT/2 - 1) bits or
more.  A polynomial is decoded, in one pass, where it is read:
``compute`` and ``composite_value`` return an ``IntPolynomial`` view of a
packed statistic, and a derived statistic reads the decoded coefficients.

``_params`` is the one place that knows the parameter rules: which
statistic takes alpha or k, their defaults, their normal form and every
error about them; the oracle resolves through it too.  ``compute`` runs
it once per call signature and keeps the outcome, the memo to read, the
plan that fills it and how to finish its value, in ``StatsEngine._calls``.
The engine owns every table its rules read: the memos, and each plan's
powers b**alpha; the module keeps no cache of its own.
"""

from __future__ import annotations

import enum
import functools
import math
import struct
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple

from . import primes
from .errors import InternalIntegrityError, InvalidInput, UnsupportedName
from .primes import PrimeSieve

StatValue = Any  # int | Fraction | IntPolynomial | float


class Statistic(NamedTuple):
    """One statistic and its recursion.

    At n in ``base`` the value is ``base[n]``; at a prime n = p_t it is
    ``prime(t, *tables)``; at a composite n = r*s it is
    ``composite(r, s, *tables)``.  ``tables`` follow ``reads``: a
    statistic's name gives its memo (at the same alpha if it takes one), a
    (name, alpha) pair its memo at that alpha, "OMEGA" the memo of Omega(m)
    (the degree of the root of m's tree) and "POW" the function
    b -> b**alpha, cached in the plan.
    A ``packed`` statistic's value is a polynomial, memoized packed and
    returned as an ``IntPolynomial``.  A derived statistic has no
    recursion: its value is ``derive(g, k)``, g the coefficient tuple of
    reads[0] at n, lowest first.  A
    multiplicative statistic (NK, MZ1, MZ2) has a ``degree_power``: at n >=
    2 its value is also the product of deg ** degree_power(deg) over the
    vertices, which the engine checks against DSP.  ``param`` is None,
    "alpha" or "k", and ``default`` its value when not given.
    """

    name: str
    oeis: str | None
    description: str
    base: dict[int, Any] | None = None
    reads: tuple = ()
    prime: Callable | None = None
    composite: Callable | None = None
    param: str | None = None
    default: Any = None
    prime_split: bool = False  # composite rule assumes r is prime
    degree_power: Callable[[int], int] | None = None  # exponent in DSP check
    derive: Callable | None = None
    packed: bool = False  # memoized as a packed polynomial
    aliases: tuple[str, ...] = ()


# One record per statistic: name, OEIS id, description, base, reads,
# prime rule, composite rule, then options.  Laid out as a table.
# fmt: off
_RECORDS = (
    Statistic("V", "A061775", "number of vertices", {1: 1}, ("V",),
              lambda t, V: 1 + V[t],
              lambda r, s, V: V[r] + V[s] - 1),
    Statistic("E", "A196050", "number of edges", {1: 0}, ("E",),
              lambda t, E: 1 + E[t],
              lambda r, s, E: E[r] + E[s]),
    Statistic("H", "A109082", "height (maximum level)", {1: 0}, ("H",),
              lambda t, H: 1 + H[t],
              lambda r, s, H: max(H[r], H[s])),
    # LLL(1) = 0 by convention: the single vertex has no leaf, and this
    # base makes LLL(2) = 1 come out right.
    Statistic("LLL", "A184166", "level of the lowest leaf", {1: 0}, ("LLL",),
              lambda t, LLL: 1 + LLL[t],
              lambda r, s, LLL: min(LLL[r], LLL[s])),
    Statistic("LV", "A109129", "number of leaves", {1: 0, 2: 1}, ("LV",),
              lambda t, LV: LV[t],
              lambda r, s, LV: LV[r] + LV[s]),
    Statistic("MD", "A196046", "maximum vertex degree", {1: 0}, ("MD", "OMEGA"),
              lambda t, MD, w: max(MD[t], 1 + w[t]),
              lambda r, s, MD, w: max(MD[r], MD[s], w[r] + w[s])),
    Statistic("DM", "A196058", "diameter", {1: 0}, ("DM", "H"),
              lambda t, DM, H: max(DM[t], 1 + H[t]),
              lambda r, s, DM, H: max(DM[r], DM[s], H[r] + H[s])),
    Statistic("PL", "A196047", "path length (sum of levels)", {1: 0}, ("PL", "V"),
              lambda t, PL, V: PL[t] + V[t],
              lambda r, s, PL, V: PL[r] + PL[s]),
    Statistic("EPL", "A196048", "external path length (sum of leaf levels)",
              {1: 0, 2: 1}, ("EPL", "LV"),
              lambda t, EPL, LV: EPL[t] + LV[t],
              lambda r, s, EPL, LV: EPL[r] + EPL[s]),
    Statistic("BV", "A196049", "number of branching vertices (degree >= 3)",
              {1: 0}, ("BV", "OMEGA"),
              lambda t, BV, w: BV[t] + (1 if w[t] == 2 else 0),
              lambda r, s, BV, w: BV[r] + BV[s] + (1 if w[s] == 2 else 0),
              prime_split=True),
    Statistic("PV", "A196067", "number of pendant vertices (degree 1)",
              {1: 0, 2: 2}, ("LV",),
              lambda t, LV: 1 + LV[t],
              lambda r, s, LV: LV[r] + LV[s]),
    Statistic("SP", "A196057", "number of sibling pairs", {1: 0}, ("SP", "OMEGA"),
              lambda t, SP, w: SP[t],
              lambda r, s, SP, w: SP[r] + SP[s] + w[r] * w[s]),
    Statistic("VL", "A196068", "visitation length (vertices + path length)",
              {1: 1}, ("VL", "V"),
              lambda t, VL, V: VL[t] + V[t] + 1,
              lambda r, s, VL, V: VL[r] + VL[s] - 1),
    Statistic("RST", "A184160", "number of subtrees containing the root",
              {1: 1}, ("RST",),
              lambda t, RST: 1 + RST[t],
              lambda r, s, RST: RST[r] * RST[s]),
    Statistic("ST", "A184161", "number of subtrees (connected subgraphs)",
              {1: 1}, ("ST", "RST"),
              lambda t, ST, RST: 1 + ST[t] + RST[t],
              lambda r, s, ST, RST: ST[r] + ST[s] + (RST[r] - 1) * (RST[s] - 1) - 1),
    Statistic("W", "A196051", "Wiener index (sum of all pairwise distances)",
              {1: 0}, ("W", "PL", "E"),
              lambda t, W, PL, E: W[t] + PL[t] + E[t] + 1,
              lambda r, s, W, PL, E: W[r] + W[s] + PL[r] * E[s] + PL[s] * E[r]),
    # TW: a root that was pendant stops being pendant when it gains an
    # edge, so its pair distances (summing to EPL) leave the sum.  In the
    # composite rule r is prime, so the r-part's root was pendant; the
    # s-part's root (at a prime: t's root) was pendant only when s (t) is.
    Statistic("TW", "A196055", "terminal Wiener index (pendant pairs only)",
              {1: 0, 2: 1}, ("TW", "LV", "EPL", "OMEGA"),
              lambda t, TW, LV, EPL, w: TW[t] + LV[t] + (0 if w[t] == 1 else EPL[t]),
              lambda r, s, TW, LV, EPL, w: (
                  TW[r] - EPL[r] + TW[s] - (EPL[s] if w[s] == 1 else 0)
                  + EPL[r] * LV[s] + EPL[s] * LV[r]),
              prime_split=True),
    Statistic("Z1", "A196053", "first Zagreb index (sum of squared degrees)",
              {1: 0}, ("Z1", "OMEGA"),
              lambda t, Z1, w: Z1[t] + 2 + 2 * w[t],
              lambda r, s, Z1, w: (
                  Z1[r] + Z1[s] - w[r] ** 2 - w[s] ** 2 + (w[r] + w[s]) ** 2)),
    Statistic("Z2", "A196054",
              "second Zagreb index (sum of degree products over edges)",
              {1: 0}, ("Z2", ("A_ALPHA", 1), "OMEGA"),
              lambda t, Z2, A, w: Z2[t] + A[t] + w[t] + 1,
              lambda r, s, Z2, A, w: Z2[r] + Z2[s] + A[r] * w[s] + A[s] * w[r]),
    # NK, MZ1 and MZ2 multiply first and divide once, exactly: the root of
    # t's tree gains one degree at p_t, and the roots of r and s merge at
    # r*s, so each rule trades the old root factors for the new one.
    Statistic("NK", "A196063", "Narumi-Katayama index (product of degrees)",
              {1: 0, 2: 1}, ("NK", "OMEGA"),
              lambda t, NK, w: _exact(NK[t] * (1 + w[t]), w[t]),
              lambda r, s, NK, w: _exact(NK[r] * NK[s] * (w[r] + w[s]), w[r] * w[s]),
              degree_power=lambda d: 1),
    Statistic("MZ1", "A196065",
              "first multiplicative Zagreb index (product of squared degrees)",
              {1: 0, 2: 1}, ("MZ1", "OMEGA"),
              lambda t, MZ1, w: _exact(MZ1[t] * (1 + w[t]) ** 2, w[t] ** 2),
              lambda r, s, MZ1, w: _exact(
                  MZ1[r] * MZ1[s] * (w[r] + w[s]) ** 2, (w[r] * w[s]) ** 2),
              degree_power=lambda d: 2),
    Statistic("MZ2", "A196064",
              "second multiplicative Zagreb index (product over edges)",
              {1: 0, 2: 1}, ("MZ2", "OMEGA"),
              lambda t, MZ2, w: _exact(MZ2[t] * (1 + w[t]) ** (1 + w[t]), w[t] ** w[t]),
              lambda r, s, MZ2, w: _exact(
                  MZ2[r] * MZ2[s] * (w[r] + w[s]) ** (w[r] + w[s]),
                  w[r] ** w[r] * w[s] ** w[s]),
              degree_power=lambda d: d),
    Statistic("A_ALPHA", "A196052", "sum of degree^alpha over level-1 vertices",
              {1: 0}, ("A_ALPHA", "OMEGA", "POW"),
              lambda t, A, w, p: p(1 + w[t]),
              lambda r, s, A, w, p: A[r] + A[s],
              param="alpha", default=1, aliases=("A",)),
    # A(t) = 0 only at t = 1, where w[t] = 0 and 0**alpha is undefined for
    # negative alpha; the guard skips that term, which is 0 anyway.
    Statistic("R_ALPHA", None,
              "general Randic index (sum over edges of (deg*deg)^alpha)",
              {1: 0}, ("R_ALPHA", "A_ALPHA", "OMEGA", "POW"),
              lambda t, R, A, w, p: (
                  R[t] + p(1 + w[t])
                  + (A[t] * (p(1 + w[t]) - p(w[t])) if A[t] else 0)),
              lambda r, s, R, A, w, p: (
                  R[r] + R[s]
                  + A[r] * (p(w[r] + w[s]) - p(w[r]))
                  + A[s] * (p(w[r] + w[s]) - p(w[s]))),
              param="alpha", default=Fraction(-1, 2),
              aliases=("R", "RANDIC")),
    # The four polynomials are packed ints (see the module docstring): 0
    # and 1 are the polynomials 0 and 1, _x(k) is x^k and << _SLOT is * x.
    Statistic("PWP", "A196056", "partial Wiener polynomial with respect to the root",
              {1: 0}, ("PWP",),
              lambda t, PWP: (1 + PWP[t]) << _SLOT,
              lambda r, s, PWP: PWP[r] + PWP[s], packed=True),
    Statistic("WP", "A196059", "Wiener polynomial (vertex pairs by distance)",
              {1: 0}, ("WP", "PWP"),
              lambda t, WP, PWP: WP[t] + ((1 + PWP[t]) << _SLOT),
              lambda r, s, WP, PWP: WP[r] + WP[s] + PWP[r] * PWP[s], packed=True),
    Statistic("DSP", "A182907", "degree sequence polynomial (vertices by degree)",
              {1: 1}, ("DSP", "OMEGA"),
              lambda t, DSP, w: DSP[t] + _x(w[t] + 1) - _x(w[t]) + _x(1),
              lambda r, s, DSP, w: (
                  DSP[r] + DSP[s] - _x(w[r]) - _x(w[s]) + _x(w[r] + w[s])), packed=True),
    Statistic("EDP", "A184167", "exit-distance polynomial (vertices by exit distance)",
              {1: 1}, ("EDP", "LLL"),
              lambda t, EDP, LLL: EDP[t] + _x(1 + LLL[t]),
              lambda r, s, EDP, LLL: EDP[r] + EDP[s] - _x(max(LLL[r], LLL[s])), packed=True),
    # The hyper-Wiener index sums (d + d^2) / 2 over the pairs at distance d;
    # d * (d + 1) is even, so each term is an exact int.
    Statistic("HYPER_W", "A196060", "hyper-Wiener index",
              reads=("WP",),
              derive=lambda g, k: sum(c * d * (d + 1) // 2 for d, c in enumerate(g))),
    Statistic("MULT_W", "A196061",
              "multiplicative Wiener index (product of pairwise distances)",
              reads=("WP",),
              derive=lambda g, k: math.prod(d**c for d, c in enumerate(g) if d > 1)),
    Statistic("POLARITY", "A184156",
              "Wiener polarity index (pairs at distance k, default 3)",
              reads=("WP",), param="k", default=3,
              derive=lambda g, k: g[k] if k < len(g) else 0),
    Statistic("SUM_EVEN", "A184157", "sum of even pairwise distances",
              reads=("WP",),
              derive=lambda g, k: sum(d * c for d, c in enumerate(g) if d % 2 == 0)),
    Statistic("SUM_ODD", "A184158", "sum of odd pairwise distances",
              reads=("WP",),
              derive=lambda g, k: sum(d * c for d, c in enumerate(g) if d % 2)),
    Statistic("EXIT_SUM", "A184168", "sum of exit distances over all vertices",
              reads=("EDP",),
              derive=lambda g, k: sum(d * c for d, c in enumerate(g))),
    Statistic("EXIT_MAX", "A184169", "maximum exit distance",
              reads=("EDP",),
              derive=lambda g, k: len(g) - 1),
    Statistic("EXIT_MAX_COUNT", "A184170",
              "number of vertices attaining the maximum exit distance",
              reads=("EDP",),
              derive=lambda g, k: g[-1]),
    Statistic("LEVEL_COUNT", None, "number of non-root vertices at level k",
              reads=("PWP",), param="k",
              derive=lambda g, k: g[k] if k < len(g) else 0),
)
# fmt: on


class _StatNameBase(enum.Enum):
    """Base of ``StatName``, whose members are built from the records."""

    @classmethod
    def from_string(cls, s: str) -> "StatName":
        key = s.strip().upper()
        try:
            return cls[_ALIASES.get(key, key)]
        except KeyError:
            raise UnsupportedName(f"unknown statistic name {s!r}") from None


StatName = _StatNameBase("StatName", [(s.name, s.name) for s in _RECORDS])

#: The record of each statistic, in declaration order.
STATISTICS: dict[StatName, Statistic] = {StatName(s.name): s for s in _RECORDS}

#: Short human description of each statistic.
DESCRIPTIONS: dict[StatName, str] = {n: s.description for n, s in STATISTICS.items()}

#: OEIS sequence ids, kept as data.  None where no single sequence applies.
OEIS_IDS: dict[StatName, str | None] = {n: s.oeis for n, s in STATISTICS.items()}

# Omega(m), the number of prime factors of m counted with multiplicity, is
# evaluated like a statistic so that rules read it from a memo; it is not
# one of the statistics, so it stays out of _RECORDS.
_OMEGA = Statistic("OMEGA", None, "number of prime factors with multiplicity",
                   {1: 0}, ("OMEGA",), lambda t, w: 1, lambda r, s, w: w[r] + w[s])

_ALIASES = {alias: s.name for s in _RECORDS for alias in s.aliases}
_BY_NAME = {s.name: s for s in (*_RECORDS, _OMEGA)}


def _statistic(name: StatName) -> Statistic:
    """name's record; a name that is not a ``StatName`` is ``UnsupportedName``."""
    if type(name) is StatName:
        return _BY_NAME[name._value_]  # a str key: no Enum.__hash__ call
    try:
        return STATISTICS[name]
    except KeyError:
        raise UnsupportedName(
            f"unknown statistic {name!r}; use StatName.from_string for a string"
        ) from None


def _simplify(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


class _NotIntegral(InternalIntegrityError):
    """An exact division in a rule left a remainder.

    ``_run``, the only caller of a rule, re-raises it as
    ``InternalIntegrityError`` naming the statistic and n, which the rule
    does not know.
    """


def _exact(num: int, den: int) -> int:
    """num / den, which must be an integer: never floored."""
    q, rem = divmod(num, den)
    if rem:
        raise _NotIntegral(Fraction(num, den))
    return q


# Bits per coefficient of a packed polynomial.  Rules and decoding read it
# when they run, so a test can narrow it.
_SLOT = 64


def _x(k: int) -> int:
    """x**k, packed."""
    return 1 << _SLOT * k


def _slots(v: int) -> tuple[int, ...]:
    """The coefficients of packed v, lowest first, with no trailing zero."""
    if v < 0:
        raise InternalIntegrityError(f"a packed polynomial came out negative: {v}")
    count = -(-v.bit_length() // _SLOT)
    code = "BHIQ"[_SLOT.bit_length() - 4]  # the unsigned 8-, 16-, 32- or 64-bit int
    return struct.unpack(f"<{count}{code}", v.to_bytes(count * _SLOT // 8, "little"))


_wrap: Any = None  # poly._wrap, imported by the first view: only a view loads poly


def _view(v: int):
    """Packed v as an ``IntPolynomial``."""
    global _wrap
    if _wrap is None:
        from .poly import _wrap
    return _wrap(_slots(v))  # _slots leaves no trailing zero


def _run(entries: list, steps: Iterable[tuple[int, tuple[int, ...]]]) -> None:
    """Memoize each m of steps in every memo of a plan's entries that lacks it.

    steps are (m, kids) in ascending m, and kids are (t,) when m = p_t is
    prime, (r, m // r) when m is composite and () at m = 1; every kid is
    memoized before m's step.  This is the only code that applies a rule,
    and so the only code that fills a memo and gives a value at an alpha
    its type.
    """
    for m, kids in steps:
        for dep, a, memo, tables in entries:
            if m not in memo:
                v = dep.base.get(m)
                if v is None:
                    rule = dep.prime if len(kids) == 1 else dep.composite
                    try:
                        v = rule(*kids, *tables)
                    except _NotIntegral as exc:
                        raise InternalIntegrityError(
                            f"{dep.name}({m}) came out non-integral: {exc}") from None
                if a is not None:  # else never a Fraction; a float alpha gives a float
                    v = float(v) if isinstance(a, float) else _simplify(v)
                memo[m] = v


# Longest exact power b**alpha, in bits (about alpha * log2(b)): one this
# long prints in about 0.03 s, and one far longer would exhaust memory.
_POWER_BITS = 1 << 17


def _check_power(base: int, alpha: int) -> None:
    """Refuse an exact base**alpha of more than ``_POWER_BITS`` bits."""
    if base > 1 and abs(alpha) * base.bit_length() > _POWER_BITS:
        raise InvalidInput(f"{base}**{alpha} would exceed {_POWER_BITS} bits; "
                           f"alpha {alpha} is too large")


def _float_power(base: int, alpha: float) -> float:
    """base**alpha at a float alpha, refused where it overflows a float."""
    try:
        return float(base) ** alpha
    except OverflowError:
        raise InvalidInput(f"{base}**{alpha} overflows a float; "
                           f"alpha {alpha} is too large") from None


def _pow(base: int, alpha):
    if isinstance(alpha, int):
        _check_power(base, alpha)
        return base**alpha if alpha >= 0 else Fraction(base) ** alpha
    return _float_power(base, alpha)


def _check_n(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    # n of at most bits bits has V(n) < 2**(_SLOT/2), so C(V, 2) < 2**(_SLOT-1)
    bits = (1 << _SLOT // 2 - 1) - 1
    if n.bit_length() > bits:
        raise InternalIntegrityError(f"n has {n.bit_length()} bits; the {_SLOT}-bit slots "
                                     f"of packed polynomials hold n of at most {bits} bits")


_NO_N: Any = object()  # the n of a call that has none: the oracle's


def _params(stat: Statistic, alpha, k, n=_NO_N, default=True, check_k=True):
    """Check a call of stat and return its (alpha, k), normalized.

    alpha comes back an int where it is one exactly, else a float.  An
    absent alpha takes the statistic's default, unless default is False:
    then it is required.  k comes back defaulted and checked, unless
    check_k is False (a call that takes no k).  n, where the call has
    one, is checked after an alpha or a k the statistic does not take,
    except that a derived statistic has its n checked before its k.
    """
    param = stat.param
    if param is None and alpha is None and k is None:
        if n is not _NO_N:
            _check_n(n)
        return None, None
    if alpha is not None and param != "alpha":
        raise InvalidInput(f"{stat.name} takes no alpha parameter")
    if stat.derive is not None and n is not _NO_N:
        _check_n(n)
    if k is not None and param != "k":
        raise InvalidInput(f"{stat.name} takes no k parameter")
    if param == "alpha":  # past here every statistic takes alpha or k
        if alpha is None:
            if not default:
                raise InvalidInput(f"{stat.name} requires alpha")
            alpha = stat.default
        if n is not _NO_N:
            _check_n(n)
        if isinstance(alpha, bool) or not isinstance(alpha, (int, Fraction, float)):
            got = "" if isinstance(alpha, bool) else f", got {alpha!r}"
            raise InvalidInput(f"alpha must be a number{got}")
        if isinstance(alpha, float) and not math.isfinite(alpha):
            raise InvalidInput(f"alpha must be a finite number, got {alpha!r}")
        try:
            return int(alpha) if alpha == int(alpha) else float(alpha), None
        except OverflowError:  # a Fraction past the float range
            raise InvalidInput(f"alpha {alpha} overflows a float") from None
    if check_k:
        k = stat.default if k is None else k
        if k is None:
            raise InvalidInput(f"{stat.name} requires k")
        if type(k) is not int:  # a bool is not a k either
            raise InvalidInput(f"k must be an integer, got {k!r}")
        if k < 0:
            raise InvalidInput(f"k must be >= 0, got {k}")
    return None, k


# The alpha types of a call signature that ``compute`` keeps: equal values
# of these types share a normal form, but True == 1 and Decimal(1) == 1
# must still be refused.
_SIGNATURE_ALPHAS = frozenset({type(None), int, Fraction, float})


class StatsEngine:
    """Memoized evaluator for all statistics.

    Not thread-safe: use one engine per thread (the underlying sieve is
    shared safely).  Values are memoized in one dict per (statistic,
    alpha), keyed by n; alpha is None for statistics without one.
    """

    def __init__(self, sieve: PrimeSieve | None = None):
        self._sieve = sieve if sieve is not None else primes.default_sieve()
        self._memo: dict[tuple[str, Any], dict[int, Any]] = {}
        self._plans: dict[tuple, tuple[list, list]] = {}
        # call signature -> (memo, plan, finish), once _params has passed it
        self._calls: dict[Any, tuple[dict, tuple[list, list], Callable | None]] = {}

    # -- internals ----------------------------------------------------

    def _plan(self, *cases) -> tuple[list, list]:
        """Return (entries, memos) for what ``compute`` reads at every case.

        cases are (statistic name, normalized alpha) pairs.  entries are
        (record, alpha, memo, read tables): for each case the statistic's,
        or a derived statistic's source's, and DSP's when it is
        multiplicative; then those of every statistic these read, one entry
        per memo.  memos are their memos in that order.
        """
        plan = self._plans.get(cases)
        if plan is None:
            keys = []
            for name, alpha in cases:
                stat = _BY_NAME[name]
                keys.append((stat.reads[0], None) if stat.derive else (name, alpha))
                if stat.degree_power is not None:  # for the check against DSP
                    keys.append(("DSP", None))
            keys = list(dict.fromkeys(keys))
            entries = []
            for name, a in keys:  # keys grows as new reads turn up
                tables = []
                for read in _BY_NAME[name].reads:
                    if read == "POW":
                        # the rules ask for few distinct powers
                        tables.append(functools.cache(lambda b, a=a: _pow(b, a)))
                        continue
                    if isinstance(read, tuple):
                        read_key = read
                    elif _BY_NAME[read].param == "alpha":
                        read_key = (read, a)
                    else:  # one memo for a statistic that takes no alpha
                        read_key = (read, None)
                    if read_key not in keys:
                        keys.append(read_key)
                    tables.append(self._memo.setdefault(read_key, {}))
                memo = self._memo.setdefault((name, a), {})
                entries.append((_BY_NAME[name], a, memo, tables))
            plan = self._plans[cases] = entries, [e[2] for e in entries]
        return plan

    def _eval(self, plan: tuple[list, list], n: int):
        """Memoize n in every memo of plan and return the first: the sparse feeder.

        It collects the part of n's DAG that some memo lacks and runs it in
        ascending m.  A head, n or a prime index, is factorized once, and
        that fixes its composite chain m -> (q, m // q), q ascending, down
        to the last q or to a step every memo holds; each prime met is
        indexed, and its index is a head in turn.  Heads wait on a list of
        their own, so stack depth does not grow with n.
        """
        entries, memos = plan
        for memo in memos:
            if n not in memo:
                break
        else:
            return memos[0][n]

        def wanted(m: int) -> bool:  # not collected yet, and some memo lacks it
            return m not in children and any(m not in memo for memo in memos)

        # A memo that holds any m holds 1, which has no kids: 1 is never a head
        children: dict[int, tuple[int, ...]] = {1: ()} if any(1 not in d for d in memos) else {}
        heads = [n]  # then each prime's index: the loop reads what it appends
        for m in filter(wanted, heads):  # wanted as it is reached, not as appended
            for q in (q for q, e in self._sieve.factorize(m).factors for _ in range(e)):
                if wanted(q):  # q is prime: its kid is its index, a head
                    t = self._sieve.prime_index(q)
                    children[q] = (t,)
                    heads.append(t)
                if m == q:  # the chain's last prime
                    break
                children[m] = (q, s := m // q)  # s is also the next key: made once
                if not wanted(s):
                    break
                m = s
        _run(entries, sorted(children.items()))
        return memos[0][n]

    def _warm(self, cases: tuple, n: int) -> None:
        """Memoize every case at n in one walk of n's DAG.

        cases are (statistic name, normalized alpha) pairs, so that
        ``compute`` and ``composite_value`` at n find their values memoized.
        """
        _check_n(n)
        self._eval(self._plan(*cases), n)

    def _dense(self, plan: tuple[list, list], lo: int, hi: int):
        """Yield (n, kids) for lo <= n <= hi, ascending: the dense feeder.

        Composites split at their smallest prime factor, read from a range
        sieve, and each prime's index is a running count from the first
        prime >= lo, which one ``prime_index`` call gives when lo > 2.
        Children below lo are memoized first through ``_eval``.
        """
        index = 0 if lo <= 2 else None  # pi(n) at the last prime n passed
        for n, r in enumerate(primes.smallest_prime_factors(lo, hi), lo):
            if r:
                kids: tuple[int, ...] = (r, n // r)
            elif n == 1:
                kids = ()
            else:
                index = self._sieve.prime_index(n) if index is None else index + 1
                kids = (index,)
            for kid in kids:
                if kid < lo:
                    self._eval(plan, kid)
            yield n, kids

    def _check_degrees(self, stat: Statistic, n: int, v: int) -> int:
        """Return v after recomputing it from the degree multiset read off DSP.

        Defense in depth: runs on every call, memoized or not.
        """
        if n < 2:
            return v
        dsp = self._eval(self._plan(("DSP", None)), n)
        power = stat.degree_power
        check = math.prod(
            deg ** (power(deg) * count) for deg, count in enumerate(_slots(dsp)) if count
        )
        if check != v:
            raise InternalIntegrityError(
                f"{stat.name}({n}): recursion gave {v}, degree multiset gives {check}"
            )
        return v

    def _call(self, stat: Statistic, n, alpha, k) -> tuple:
        """(memo, plan, finish) of a call of stat, once ``_params`` passes it at n.

        ``compute`` returns the value v at n in memo, which plan fills, as
        it is, or as finish(n, v): a derived statistic's rule, a packed
        statistic's view or a multiplicative statistic's DSP check.
        """
        alpha, k = _params(stat, alpha, k, n)
        plan = self._plan((stat.reads[0], None) if stat.derive else (stat.name, alpha))
        if stat.derive is not None:
            return plan[1][0], plan, lambda n, g: stat.derive(_slots(g), k)
        if stat.degree_power is not None:
            return plan[1][0], plan, functools.partial(self._check_degrees, stat)
        return plan[1][0], plan, (lambda n, v: _view(v)) if stat.packed else None

    # -- public operations ---------------------------------------------

    def compute(
        self, name: StatName, n: int, alpha=None, k: int | None = None
    ) -> StatValue:
        """The value of any statistic at n, at the alpha or k it takes."""
        # _statistic(name), inlined on the path of every memo hit
        stat = _BY_NAME[name._value_] if type(name) is StatName else _statistic(name)
        if alpha is None and k is None:
            signature: Any = stat.name  # a str key: no Enum.__hash__ call
        elif type(alpha) in _SIGNATURE_ALPHAS and (k is None or type(k) is int):
            signature = stat.name, alpha, k
        else:  # checked on every call: True == 1 and 2.0 == 2 as keys
            signature = None
        call = self._calls.get(signature)
        if call is None:
            call = self._call(stat, n, alpha, k)
            if signature is not None:
                self._calls[signature] = call
        memo, plan, finish = call
        v = memo.get(n) if type(n) is int else None
        if v is None:
            _check_n(n)
            v = self._eval(plan, n)
        return v if finish is None else finish(n, v)

    def fill(self, name: StatName, lo: int, hi: int, alpha=None) -> None:
        """Memoize what ``compute(name, n, alpha=alpha)`` reads, for lo <= n <= hi.

        The dense feeder walks the range, so the pass neither factorizes
        nor reads the shared sieve, apart from the one ``prime_index``
        call at the first prime >= lo when lo > 2.  It stops at the sieve's
        ceiling; ``compute`` meets any n past it on its own.
        """
        stat = _statistic(name)
        alpha = _params(stat, alpha, None, lo, check_k=False)[0]
        _check_n(hi)
        plan = self._plan((stat.name, alpha))
        _run(plan[0], self._dense(plan, lo, min(hi, self._sieve.ceiling)))

    def composite_value(self, name: StatName, r: int, s: int, alpha=None) -> StatValue:
        """Evaluate a statistic's composite-case rule at the split n = r*s.

        Sub-values are taken from the canonical (memoized) recursion; this
        exists so split-invariance can be checked against arbitrary splits.
        The rule runs through ``_run`` into a memo of its own, so no memo of
        the engine ever holds a value of a split that is not canonical.
        """
        if r < 2 or s < 2:
            raise InvalidInput("both parts of a split must be >= 2")
        stat = _statistic(name)
        a = _params(stat, alpha, None, r * s, default=False, check_k=False)[0]
        if stat.composite is None:
            raise InvalidInput(f"{stat.name} has no composite-case rule")
        if stat.prime_split and self._sieve.factorize(r).omega != 1:
            raise InvalidInput(f"the {stat.name} composite rule requires a prime r")
        plan = self._plan((stat.name, a))
        self._eval(plan, r)
        self._eval(plan, s)
        split: dict[int, Any] = {}
        _run([(stat, a, split, plan[0][0][3])], [(r * s, (r, s))])
        return _view(split[r * s]) if stat.packed else split[r * s]


_default_engine = StatsEngine()  # cheap: the memos fill on use


def default_engine() -> StatsEngine:
    """Shared engine for one-shot use (CLI); its memo grows unboundedly."""
    return _default_engine
