"""Ground-truth statistics computed from the explicit tree.

Everything here works from first definitions on a decoded tree — BFS
distances, degrees, levels, exit labels, connected-subset enumeration —
and deliberately shares no recursion code with the stats engine, so the
two sides can be checked against each other.  Subtrees (ST, RST) are
enumerated set by set up to 2**16 sets, which covers every tree with
n <= 5000; a tree with more is counted by the product over children.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import comb, lcm, prod
from typing import Any, Callable

from . import primes, stats
from .errors import BudgetExceeded, InvalidInput
from .poly import IntPolynomial
from .stats import STATISTICS, StatName, StatsEngine
from .tree import RootedTree, decode

_ANALYSIS_BUDGET = 10_000  # vertices; the pair distances cost time V**2, memory V
_ENUMERATION_BUDGET = 1 << 16  # connected sets made before the product takes over


class TreeAnalysis:
    """One column per vertex fact, plus two aggregates of pair distances.

    Vertices are indexed in canonical preorder (root = 0, ``parents[0]`` is
    -1).  ``leaves[i]`` says whether vertex i is a leaf; the single vertex
    is none.  ``exits[i]`` is its exit distance.  ``distance_counts[d]`` is
    the number of vertex pairs at distance d >= 1, and
    ``pendant_distance_sum`` the sum of the distances between pairs of
    pendant (degree 1) vertices.
    """

    def __init__(
        self, parents, children, levels, degrees, leaves, exits, edges,
        distance_counts, pendant_distance_sum,
    ):
        self.parents: list[int] = parents
        self.children: list[list[int]] = children
        self.levels: list[int] = levels
        self.degrees: list[int] = degrees
        self.leaves: list[bool] = leaves
        self.exits: list[int] = exits
        self.edges: list[tuple[int, int]] = edges
        self.distance_counts: Counter = distance_counts
        self.pendant_distance_sum: int = pendant_distance_sum

    @property
    def vertex_count(self) -> int:
        return len(self.parents)

    @cached_property
    def subtree_counts(self) -> tuple[int, int]:
        """(subtrees, root subtrees), counted by ``subtree_counts(self)``."""
        return subtree_counts(self)


def analyze(t: RootedTree) -> TreeAnalysis:
    """Flatten a tree into its vertex columns and count its pair distances."""
    parents: list[int] = []
    stack: list[tuple[RootedTree, int]] = [(t, -1)]
    while stack:
        node, pi = stack.pop()
        i = len(parents)
        if i >= _ANALYSIS_BUDGET:
            raise BudgetExceeded(
                f"tree exceeds the oracle budget of {_ANALYSIS_BUDGET} vertices",
                needed=i + 1,
                limit=_ANALYSIS_BUDGET,
            )
        parents.append(pi)
        for child in reversed(node.children):
            stack.append((child, i))

    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        children[parents[i]].append(i)

    levels = [0] * n
    for i in range(1, n):
        levels[i] = levels[parents[i]] + 1

    degrees = [len(children[i]) + (1 if i > 0 else 0) for i in range(n)]
    edges = [(parents[i], i) for i in range(1, n)]

    # Exit distances: leaves get 0, every other vertex is one more than
    # its closest child.  The single vertex gets 0 by convention.
    exits = [0] * n
    for i in range(n - 1, -1, -1):
        if children[i]:
            exits[i] = 1 + min(exits[c] for c in children[i])

    leaves = [not kids and n > 1 for kids in children]
    return TreeAnalysis(
        parents, children, levels, degrees, leaves, exits, edges, *_pair_distances(edges, degrees)
    )


def _pair_distances(edges: list[tuple[int, int]], degrees: list[int]) -> tuple[Counter, int]:
    """(pairs at each distance, distance sum over pendant pairs).

    One BFS from each vertex s counts the vertices after s by their
    distance from s, and drops its distances before the next BFS.
    """
    n = len(degrees)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    pendant = [d == 1 for d in degrees]
    counts: Counter = Counter()
    pendant_sum = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        order = [s]
        for u in order:
            du = dist[u] + 1
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = du
                    order.append(v)
        after = dist[s + 1 :]
        counts.update(after)
        if pendant[s]:
            pendant_sum += sum(compress(after, pendant[s + 1 :]))
    return counts, pendant_sum


# -- subtree counting -----------------------------------------------------


def subtree_counts(an: TreeAnalysis) -> tuple[int, int]:
    """Return (subtrees, root subtrees): the tree's connected vertex sets.

    The sets are enumerated one by one when the product over children
    counts at most ``_ENUMERATION_BUDGET`` of them; a tree with more is
    counted by that product, and never enumerated.
    """
    counts = _subtrees_by_dp(an)
    if counts[0] <= _ENUMERATION_BUDGET:
        counts = _subtrees_by_enumeration(an) or counts
    return counts


def _subtrees_by_enumeration(an: TreeAnalysis) -> tuple[int, int] | None:
    """Make each connected vertex set once; None past ``_ENUMERATION_BUDGET``.

    Sets grow from their lowest vertex v.  Taking w from a set's extension
    (its neighbours above v still allowed in) makes one new set, whose
    extension is the rest of the old one plus w's new neighbours.  Vertex
    0 is the root, so the sets grown from v = 0 are the root subtrees.
    """
    n = an.vertex_count
    adj = {1 << i: 0 for i in range(n)}
    for a, b in an.edges:
        adj[1 << a] |= 1 << b
        adj[1 << b] |= 1 << a
    made = rooted = 0
    for v in range(n):
        above = ~((2 << v) - 1)
        stack = [(1 << v, adj[1 << v] & above)]
        while stack:
            members, ext = stack.pop()
            made += 1
            if made > _ENUMERATION_BUDGET:
                return None
            while ext:
                w = ext & -ext
                ext ^= w
                stack.append((members | w, ext | (adj[w] & above & ~members)))
        if v == 0:
            rooted = made
    return made, rooted


def _subtrees_by_dp(an: TreeAnalysis) -> tuple[int, int]:
    n = an.vertex_count
    rooted_at = [0] * n
    for i in range(n - 1, -1, -1):
        d = 1
        for c in an.children[i]:
            d *= 1 + rooted_at[c]
        rooted_at[i] = d
    return sum(rooted_at), rooted_at[0]


# -- definitional statistic values ----------------------------------------


def _poly_of_counts(counts: Counter) -> IntPolynomial:
    """The polynomial with coefficient counts[e] at each exponent e."""
    if not counts:
        return IntPolynomial()
    coeffs = [0] * (max(counts) + 1)
    for v, c in counts.items():
        coeffs[v] = c
    return IntPolynomial(coeffs)


def _inverse_power_sum(bases, m: int) -> Fraction:
    """The sum of 1 / b**m, as one fraction over the lcm of the b**m."""
    powers = [b**m for b in bases]
    den = lcm(*powers)
    return Fraction(sum(den // p for p in powers), den)


def _power_sum(bases, a):
    """The sum of b**a: a float at a float a, else exact.

    An exact sum whose largest power is past the engine's bound is
    refused as the engine refuses it, before any power is made.
    """
    if isinstance(a, float):
        return float(sum(stats._float_power(b, a) for b in bases))
    bases = list(bases)
    stats._check_power(max(bases, default=1), a)
    if a >= 0:
        return sum(b**a for b in bases)
    return stats._simplify(_inverse_power_sum(bases, -a))


S = StatName

# One definition per statistic, from the explicit tree.  Each takes
# (analysis, parameter); the parameter is the function bases -> sum of
# b**alpha for A_ALPHA and R_ALPHA, k for POLARITY and LEVEL_COUNT, None
# otherwise.  The statistics of pair distances read their counts.
# fmt: off
_DEFINITIONS: dict[StatName, Callable[[TreeAnalysis, Any], Any]] = {
    S.V: lambda an, _: an.vertex_count,
    S.E: lambda an, _: len(an.edges),
    S.H: lambda an, _: max(an.levels),
    # the single vertex has no leaf: LLL(1) = 0 by convention
    S.LLL: lambda an, _: min(compress(an.levels, an.leaves), default=0),
    S.LV: lambda an, _: sum(an.leaves),
    S.MD: lambda an, _: max(an.degrees),
    S.DM: lambda an, _: max(an.distance_counts, default=0),
    S.PL: lambda an, _: sum(an.levels),
    S.EPL: lambda an, _: sum(compress(an.levels, an.leaves)),
    S.BV: lambda an, _: sum(d >= 3 for d in an.degrees),
    S.PV: lambda an, _: sum(d == 1 for d in an.degrees),
    S.SP: lambda an, _: sum(comb(len(kids), 2) for kids in an.children),
    S.VL: lambda an, _: an.vertex_count + sum(an.levels),
    S.RST: lambda an, _: an.subtree_counts[1],
    S.ST: lambda an, _: an.subtree_counts[0],
    S.W: lambda an, _: sum(d * c for d, c in an.distance_counts.items()),
    S.TW: lambda an, _: an.pendant_distance_sum,
    S.Z1: lambda an, _: sum(d * d for d in an.degrees),
    S.Z2: lambda an, _: sum(an.degrees[a] * an.degrees[b] for a, b in an.edges),
    S.NK: lambda an, _: prod(an.degrees),
    S.MZ1: lambda an, _: prod(d * d for d in an.degrees),
    # MZ2(1) = 0 matches the bijection side's base convention
    S.MZ2: lambda an, _: prod(d**d for d in an.degrees) if an.vertex_count > 1 else 0,
    S.A_ALPHA: lambda an, total: total(
        d for d, level in zip(an.degrees, an.levels) if level == 1),
    S.R_ALPHA: lambda an, total: total(an.degrees[a] * an.degrees[b] for a, b in an.edges),
    S.PWP: lambda an, _: _poly_of_counts(Counter(an.levels[1:])),
    S.WP: lambda an, _: _poly_of_counts(an.distance_counts),
    S.DSP: lambda an, _: _poly_of_counts(Counter(an.degrees)),
    S.EDP: lambda an, _: _poly_of_counts(Counter(an.exits)),
    S.HYPER_W: lambda an, _: sum(
        c * (d * (d + 1) // 2) for d, c in an.distance_counts.items()),
    S.MULT_W: lambda an, _: prod(d**c for d, c in an.distance_counts.items()),
    S.POLARITY: lambda an, k: an.distance_counts.get(k, 0),
    S.SUM_EVEN: lambda an, _: sum(
        d * c for d, c in an.distance_counts.items() if d % 2 == 0),
    S.SUM_ODD: lambda an, _: sum(
        d * c for d, c in an.distance_counts.items() if d % 2 == 1),
    S.EXIT_SUM: lambda an, _: sum(an.exits),
    S.EXIT_MAX: lambda an, _: max(an.exits),
    S.EXIT_MAX_COUNT: lambda an, _: an.exits.count(max(an.exits)),
    S.LEVEL_COUNT: lambda an, k: an.levels[1:].count(k),
}
# fmt: on


def oracle_value(an: TreeAnalysis, name: StatName, alpha=None, k: int | None = None):
    """Compute a statistic from the analysis using only its definition.

    The parameters resolve as the engine's do (``stats._params``), except
    that a statistic that takes alpha requires it.
    """
    stat = stats._statistic(name)
    alpha, k = stats._params(stat, alpha, k, default=False)
    if stat.param == "alpha":
        return _DEFINITIONS[name](an, lambda bases: _power_sum(bases, alpha))
    return _DEFINITIONS[name](an, k)


def oracle_stat(name: StatName, t: RootedTree, alpha=None, k: int | None = None):
    return oracle_value(analyze(t), name, alpha=alpha, k=k)


# -- cross-validation helpers ----------------------------------------------

_FLOAT_ALPHA = -0.5
_EXACT_ALPHAS = (1, 2, -1)
_ALPHAS = (*_EXACT_ALPHAS, _FLOAT_ALPHA)
# The (statistic, alpha) memos that compare_all reads, warmed in one walk:
# every recursive statistic, at each alpha checked.  A derived statistic
# reads the memo of its source, which is recursive.
_WARM_CASES = tuple(
    (stat.name, a)
    for stat in STATISTICS.values()
    if stat.derive is None
    for a in (_ALPHAS if stat.param == "alpha" else (None,))
)


def _float_close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def compare_all(
    n: int,
    engine: StatsEngine | None = None,
    an: TreeAnalysis | None = None,
) -> list[str]:
    """Compare every statistic's recursion against the oracle for one n.

    Alpha statistics are checked at alpha = 1, 2, -1 and (approximately)
    -0.5, a k without default at k = 0 .. height + 1, the rest once.
    Returns a list of mismatch descriptions (empty means full agreement).
    """
    engine = engine if engine is not None else stats.default_engine()
    if an is None:
        an = analyze(decode(n))
    height = max(an.levels)
    engine._warm(_WARM_CASES, n)
    problems: list[str] = []
    for name, stat in STATISTICS.items():
        if stat.param == "alpha":
            cases = [{"alpha": a} for a in _ALPHAS]
        elif stat.param == "k" and stat.default is None:
            cases = [{"k": k} for k in range(height + 2)]
        else:
            cases = [{}]
        for kw in cases:
            got = engine.compute(name, n, **kw)
            want = oracle_value(an, name, **kw)
            if kw.get("alpha") == _FLOAT_ALPHA:
                ok = _float_close(got, want)
            else:
                ok = got == want
            if not ok:
                label = name.value + "".join(f"[{p}={v}]" for p, v in kw.items())
                problems.append(f"n={n} {label}: recursion {got!r} != oracle {want!r}")
    return problems


def random_split_check(n: int, rng_seed: int, engine: StatsEngine | None = None) -> bool:
    """Recompute each recursive statistic at a random split r*s = n.

    The split is drawn uniformly from the nontrivial divisors; statistics
    whose composite rule assumes a prime r draw r from the prime factors
    instead.  Alpha statistics are checked at alpha = 1, 2 and -1.  True
    iff everything matches the canonical computation.
    """
    engine = engine if engine is not None else stats.default_engine()
    fz = primes.factorize(n)
    if fz.omega < 2:
        raise InvalidInput(f"{n} is not composite")
    rng = random.Random(rng_seed)

    # Each exponent drawn uniformly from 0 .. its multiplicity gives every
    # divisor alike; redrawing 1 and n leaves the nontrivial ones alike.
    r = 1
    while r in (1, n):
        r = prod(p ** rng.randint(0, mult) for p, mult in fz.factors)
    prime_r = rng.choice([p for p, _ in fz.factors])

    for name, stat in STATISTICS.items():
        if stat.composite is None:
            continue
        a = prime_r if stat.prime_split else r
        for alpha in _EXACT_ALPHAS if stat.param == "alpha" else (None,):
            want = engine.compute(name, n, alpha=alpha)
            if engine.composite_value(name, a, n // a, alpha=alpha) != want:
                return False
    return True

