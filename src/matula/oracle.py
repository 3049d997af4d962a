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
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm, prod
from typing import Any, Callable

from . import primes, stats
from .errors import BudgetExceeded, InvalidInput
from .poly import IntPolynomial
from .stats import STATISTICS, StatName, StatsEngine
from .tree import RootedTree, decode

_ANALYSIS_BUDGET = 10_000  # vertices; all-pairs distances cost V**2
_ENUMERATION_BUDGET = 1 << 16  # connected sets made before the product takes over


class VertexInfo:
    __slots__ = ("level", "degree", "parent", "is_leaf", "exit_distance")

    def __init__(
        self, level: int, degree: int, parent: int | None, is_leaf: bool, exit_distance: int
    ):
        self.level = level
        self.degree = degree
        self.parent = parent
        self.is_leaf = is_leaf
        self.exit_distance = exit_distance


class TreeAnalysis:
    """Per-vertex data plus the all-pairs distance matrix.

    Vertices are indexed in canonical preorder (root = 0).  ``pair_dists``
    lists dist[i][j] for i < j, row by row.  The facts that several
    definitions read (``_degrees``, ``_edge_degree_pairs`` and
    ``_distance_counts``) are computed once, on first use.
    """

    def __init__(
        self,
        vertices: list[VertexInfo],
        children: list[list[int]],
        edges: list[tuple[int, int]],
        dist: list[list[int]],
        pair_dists: list[int],
    ):
        self.vertices = vertices
        self.children = children
        self.edges = edges
        self.dist = dist
        self.pair_dists = pair_dists

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def degrees(self) -> list[int]:
        return list(self._degrees)

    def edge_degree_pairs(self) -> list[tuple[int, int]]:
        return list(self._edge_degree_pairs)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(v.degree for v in self.vertices)

    @cached_property
    def _edge_degree_pairs(self) -> tuple[tuple[int, int], ...]:
        degrees = self._degrees
        return tuple((degrees[a], degrees[b]) for a, b in self.edges)

    @cached_property
    def _distance_counts(self) -> Counter:
        """The number of vertex pairs at each distance d >= 1."""
        return Counter(self.pair_dists)

    @cached_property
    def subtree_counts(self) -> tuple[int, int]:
        """(subtrees, root subtrees), counted by ``subtree_counts(self)``."""
        return subtree_counts(self)


def analyze(t: RootedTree) -> TreeAnalysis:
    """Flatten a tree and precompute levels, degrees, exit labels, distances."""
    nodes: list[RootedTree] = []
    parent: list[int] = []
    stack: list[tuple[RootedTree, int]] = [(t, -1)]
    while stack:
        node, pi = stack.pop()
        if len(nodes) >= _ANALYSIS_BUDGET:
            raise BudgetExceeded(
                f"tree exceeds the oracle budget of {_ANALYSIS_BUDGET} vertices",
                needed=len(nodes) + 1,
                limit=_ANALYSIS_BUDGET,
            )
        i = len(nodes)
        nodes.append(node)
        parent.append(pi)
        for child in reversed(node.children):
            stack.append((child, i))

    n = len(nodes)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        children[parent[i]].append(i)

    levels = [0] * n
    for i in range(1, n):
        levels[i] = levels[parent[i]] + 1

    degrees = [len(children[i]) + (1 if i > 0 else 0) for i in range(n)]
    edges = [(parent[i], i) for i in range(1, n)]

    # Exit distances: leaves get 0, every other vertex is one more than
    # its closest child.  The single vertex gets 0 by convention.
    exits = [0] * n
    for i in range(n - 1, -1, -1):
        if children[i]:
            exits[i] = 1 + min(exits[c] for c in children[i])

    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)

    dist = [_bfs_distances(adjacency, start) for start in range(n)]

    vertices = [
        VertexInfo(
            level=levels[i],
            degree=degrees[i],
            parent=None if i == 0 else parent[i],
            is_leaf=not children[i] and n > 1,
            exit_distance=exits[i],
        )
        for i in range(n)
    ]
    pair_dists = [d for i, row in enumerate(dist) for d in row[i + 1 :]]
    return TreeAnalysis(vertices, children, edges, dist, pair_dists)


def _bfs_distances(adjacency: list[list[int]], start: int) -> list[int]:
    n = len(adjacency)
    dist = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# -- subtree counting -----------------------------------------------------


def subtree_counts(an: TreeAnalysis) -> tuple[int, int]:
    """Return (subtrees, root subtrees): the tree's connected vertex sets.

    The sets are enumerated one by one while there are at most
    ``_ENUMERATION_BUDGET`` of them; a tree with more is counted by the
    product over children instead.
    """
    counts = _subtrees_by_enumeration(an)
    return counts if counts is not None else _subtrees_by_dp(an)


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


def _count_of_max(values: list[int]) -> int:
    return values.count(max(values))


def _inverse_power_sum(bases, m: int) -> Fraction:
    """The sum of 1 / b**m, as one fraction over the lcm of the b**m."""
    powers = [b**m for b in bases]
    den = lcm(*powers)
    return Fraction(sum(den // p for p in powers), den)


S = StatName

# One definition per statistic, from the explicit tree.  Each takes
# (analysis, parameter); the parameter is the function bases -> sum of
# b**alpha for A_ALPHA and R_ALPHA, k for POLARITY and LEVEL_COUNT, None
# otherwise.  The statistics of pair distances read their counts.
# fmt: off
_DEFINITIONS: dict[StatName, Callable[[TreeAnalysis, Any], Any]] = {
    S.V: lambda an, _: an.vertex_count,
    S.E: lambda an, _: len(an.edges),
    S.H: lambda an, _: max(v.level for v in an.vertices),
    # the single vertex has no leaf: LLL(1) = 0 by convention
    S.LLL: lambda an, _: min((v.level for v in an.vertices if v.is_leaf), default=0),
    S.LV: lambda an, _: sum(v.is_leaf for v in an.vertices),
    S.MD: lambda an, _: max(an._degrees),
    S.DM: lambda an, _: max(an._distance_counts, default=0),
    S.PL: lambda an, _: sum(v.level for v in an.vertices),
    S.EPL: lambda an, _: sum(v.level for v in an.vertices if v.is_leaf),
    S.BV: lambda an, _: sum(d >= 3 for d in an._degrees),
    S.PV: lambda an, _: sum(d == 1 for d in an._degrees),
    S.SP: lambda an, _: sum(comb(len(kids), 2) for kids in an.children),
    S.VL: lambda an, _: an.vertex_count + sum(v.level for v in an.vertices),
    S.RST: lambda an, _: an.subtree_counts[1],
    S.ST: lambda an, _: an.subtree_counts[0],
    S.W: lambda an, _: sum(d * c for d, c in an._distance_counts.items()),
    S.TW: lambda an, _: sum(an.dist[a][b] for a, b in combinations(
        [i for i, d in enumerate(an._degrees) if d == 1], 2)),
    S.Z1: lambda an, _: sum(d * d for d in an._degrees),
    S.Z2: lambda an, _: sum(da * db for da, db in an._edge_degree_pairs),
    S.NK: lambda an, _: prod(an._degrees),
    S.MZ1: lambda an, _: prod(d * d for d in an._degrees),
    # MZ2(1) = 0 matches the bijection side's base convention
    S.MZ2: lambda an, _: prod(d**d for d in an._degrees) if an.vertex_count > 1 else 0,
    S.A_ALPHA: lambda an, total: total(v.degree for v in an.vertices if v.level == 1),
    S.R_ALPHA: lambda an, total: total(da * db for da, db in an._edge_degree_pairs),
    S.PWP: lambda an, _: _poly_of_counts(Counter(
        v.level for v in an.vertices if v.parent is not None)),
    S.WP: lambda an, _: _poly_of_counts(an._distance_counts),
    S.DSP: lambda an, _: _poly_of_counts(Counter(an._degrees)),
    S.EDP: lambda an, _: _poly_of_counts(Counter(v.exit_distance for v in an.vertices)),
    S.HYPER_W: lambda an, _: sum(
        c * (d * (d + 1) // 2) for d, c in an._distance_counts.items()),
    S.MULT_W: lambda an, _: prod(d**c for d, c in an._distance_counts.items()),
    S.POLARITY: lambda an, k: an._distance_counts.get(k, 0),
    S.SUM_EVEN: lambda an, _: sum(
        d * c for d, c in an._distance_counts.items() if d % 2 == 0),
    S.SUM_ODD: lambda an, _: sum(
        d * c for d, c in an._distance_counts.items() if d % 2 == 1),
    S.EXIT_SUM: lambda an, _: sum(v.exit_distance for v in an.vertices),
    S.EXIT_MAX: lambda an, _: max(v.exit_distance for v in an.vertices),
    S.EXIT_MAX_COUNT: lambda an, _: _count_of_max([v.exit_distance for v in an.vertices]),
    S.LEVEL_COUNT: lambda an, k: sum(
        v.level == k for v in an.vertices if v.parent is not None),
}
# fmt: on


def oracle_value(an: TreeAnalysis, name: StatName, alpha=None, k: int | None = None):
    """Compute a statistic from the analysis using only its definition.

    Parameter conventions (which parameter, its default) come from the
    statistic's record; a missing alpha and a parameter the statistic does
    not take are rejected, with the engine's messages.
    """
    stat = stats._statistic(name)
    define = _DEFINITIONS[name]
    if stat.param is None and alpha is None and k is None:
        return define(an, None)
    if alpha is not None and stat.param != "alpha":
        raise InvalidInput(f"{name.value} takes no alpha parameter")
    if k is not None and stat.param != "k":
        raise InvalidInput(f"{name.value} takes no k parameter")
    if stat.param == "alpha":
        if alpha is None:
            raise InvalidInput(f"{name.value} requires alpha")
        exact, a = stats._alpha_mode(alpha)
        if not exact:
            return float(define(an, lambda bases: sum(float(b) ** a for b in bases)))
        if a >= 0:
            return define(an, lambda bases: sum(b**a for b in bases))
        return stats._simplify(define(an, lambda bases: _inverse_power_sum(bases, -a)))
    return define(an, stats._k_value(stat, k))


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
    height = max(v.level for v in an.vertices)
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

    r = rng.choice(_nontrivial_divisors(n, fz))
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


def _nontrivial_divisors(n: int, fz: primes.Factorization) -> list[int]:
    divisors = [1]
    for p, mult in fz.factors:
        divisors = [d * p**e for d in divisors for e in range(mult + 1)]
    return sorted(d for d in divisors if 1 < d < n)
