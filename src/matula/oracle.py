"""Ground-truth statistics computed from the explicit tree.

Everything here works from first definitions on a decoded tree — BFS
distances, degrees, levels, exit labels, connected-subset enumeration —
and deliberately shares no recursion code with the stats engine, so the
two sides can be checked against each other.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import primes, stats
from .errors import BudgetExceeded, InvalidInput, UnsupportedName
from .poly import IntPolynomial
from .stats import STATISTICS, StatName, StatsEngine
from .tree import RootedTree, decode

_SUBSET_ENUMERATION_MAX = 16

#: statistics that take an alpha parameter
ALPHA_STATS = tuple(name for name, s in STATISTICS.items() if s.param == "alpha")


@dataclass
class VertexInfo:
    level: int
    degree: int
    parent: int | None
    is_leaf: bool
    exit_distance: int


@dataclass
class TreeAnalysis:
    """Per-vertex data plus the all-pairs distance matrix.

    Vertices are indexed in canonical preorder (root = 0).
    """

    vertices: list[VertexInfo]
    children: list[list[int]]
    edges: list[tuple[int, int]]
    dist: list[list[int]]
    _subtree_counts: tuple[int, int] | None = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def degrees(self) -> list[int]:
        return [v.degree for v in self.vertices]

    def edge_degree_pairs(self) -> list[tuple[int, int]]:
        return [
            (self.vertices[a].degree, self.vertices[b].degree) for a, b in self.edges
        ]


def analyze(t: RootedTree, max_vertices: int = 10_000) -> TreeAnalysis:
    """Flatten a tree and precompute levels, degrees, exit labels, distances."""
    nodes: list[RootedTree] = []
    parent: list[int] = []
    stack: list[tuple[RootedTree, int]] = [(t, -1)]
    while stack:
        node, pi = stack.pop()
        if len(nodes) >= max_vertices:
            raise BudgetExceeded(
                f"tree exceeds the oracle budget of {max_vertices} vertices"
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
    return TreeAnalysis(vertices=vertices, children=children, edges=edges, dist=dist)


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


def subtree_counts(an: TreeAnalysis, method: str = "auto") -> tuple[int, int]:
    """Return (subtrees, root subtrees) = connected subgraph counts.

    "enumerate" checks every vertex subset (needs <= 16 vertices);
    "dp" multiplies (1 + count) over children.  "auto" enumerates when
    small enough, which is the slower but more definitional route.
    """
    if method == "auto":
        method = "enumerate" if an.vertex_count <= _SUBSET_ENUMERATION_MAX else "dp"
    if method == "enumerate":
        if an.vertex_count > _SUBSET_ENUMERATION_MAX:
            raise BudgetExceeded(
                f"subset enumeration needs <= {_SUBSET_ENUMERATION_MAX} vertices, "
                f"tree has {an.vertex_count}"
            )
        return _subtrees_by_enumeration(an)
    if method == "dp":
        return _subtrees_by_dp(an)
    raise InvalidInput(f"unknown subtree counting method {method!r}")


def _subtrees_by_enumeration(an: TreeAnalysis) -> tuple[int, int]:
    n = an.vertex_count
    adj_mask = [0] * n
    for a, b in an.edges:
        adj_mask[a] |= 1 << b
        adj_mask[b] |= 1 << a
    total = rooted = 0
    for mask in range(1, 1 << n):
        seen = mask & (-mask)
        frontier = seen
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & (-m)
                m ^= low
                grow |= adj_mask[low.bit_length() - 1]
            frontier = grow & mask & ~seen
            seen |= frontier
        if seen == mask:
            total += 1
            if mask & 1:
                rooted += 1
    return total, rooted


def _subtrees_by_dp(an: TreeAnalysis) -> tuple[int, int]:
    n = an.vertex_count
    rooted_at = [0] * n
    for i in range(n - 1, -1, -1):
        d = 1
        for c in an.children[i]:
            d *= 1 + rooted_at[c]
        rooted_at[i] = d
    return sum(rooted_at), rooted_at[0]


def _cached_subtree_counts(an: TreeAnalysis) -> tuple[int, int]:
    if an._subtree_counts is None:
        an._subtree_counts = subtree_counts(an)
    return an._subtree_counts


# -- definitional statistic values ----------------------------------------


def oracle_value(an: TreeAnalysis, name: StatName, alpha=None, k: int | None = None):
    """Compute a statistic from the analysis using only its definition."""
    verts = an.vertices
    n = an.vertex_count
    pair_dists = [an.dist[i][j] for i in range(n) for j in range(i + 1, n)]

    if name in ALPHA_STATS:
        if alpha is None:
            raise InvalidInput(f"{name.value} requires alpha")
        exact, a = stats._alpha_mode(alpha)

        def p(base: int):
            return Fraction(base) ** a if exact else float(base) ** a

        if name is StatName.A_ALPHA:
            terms = [p(v.degree) for v in verts if v.level == 1]
        else:
            terms = [p(da * db) for da, db in an.edge_degree_pairs()]
        total = sum(terms) if terms else (0 if exact else 0.0)
        return stats._simplify(total) if exact else total

    if name is StatName.POLARITY:
        k = 3 if k is None else k
    if name is StatName.LEVEL_COUNT and k is None:
        raise InvalidInput("LEVEL_COUNT requires k")

    if name is StatName.V:
        return n
    if name is StatName.E:
        return len(an.edges)
    if name is StatName.H:
        return max(v.level for v in verts)
    if name is StatName.LLL:
        leaf_levels = [v.level for v in verts if v.is_leaf]
        return min(leaf_levels) if leaf_levels else 0  # 1-vertex convention
    if name is StatName.LV:
        return sum(1 for v in verts if v.is_leaf)
    if name is StatName.MD:
        return max(v.degree for v in verts)
    if name is StatName.DM:
        return max(pair_dists, default=0)
    if name is StatName.PL:
        return sum(v.level for v in verts)
    if name is StatName.EPL:
        return sum(v.level for v in verts if v.is_leaf)
    if name is StatName.BV:
        return sum(1 for v in verts if v.degree >= 3)
    if name is StatName.PV:
        return sum(1 for v in verts if v.degree == 1)
    if name is StatName.SP:
        return sum(comb(len(kids), 2) for kids in an.children)
    if name is StatName.VL:
        return n + sum(v.level for v in verts)
    if name is StatName.RST:
        return _cached_subtree_counts(an)[1]
    if name is StatName.ST:
        return _cached_subtree_counts(an)[0]
    if name is StatName.W:
        return sum(pair_dists)
    if name is StatName.TW:
        pendant = [i for i, v in enumerate(verts) if v.degree == 1]
        return sum(
            an.dist[a][b] for x, a in enumerate(pendant) for b in pendant[x + 1 :]
        )
    if name is StatName.Z1:
        return sum(v.degree**2 for v in verts)
    if name is StatName.Z2:
        return sum(da * db for da, db in an.edge_degree_pairs())
    if name is StatName.NK:
        out = 1
        for v in verts:
            out *= v.degree
        return out
    if name is StatName.MZ1:
        out = 1
        for v in verts:
            out *= v.degree**2
        return out
    if name is StatName.MZ2:
        if n == 1:
            return 0  # matches the bijection side's base convention
        out = 1
        for v in verts:
            out *= v.degree**v.degree
        return out

    if name is StatName.PWP:
        return _counting_poly(v.level for v in verts if v.parent is not None)
    if name is StatName.WP:
        return _counting_poly(pair_dists)
    if name is StatName.DSP:
        return _counting_poly(v.degree for v in verts)
    if name is StatName.EDP:
        return _counting_poly(v.exit_distance for v in verts)

    if name is StatName.HYPER_W:
        doubled = sum(d * d + d for d in pair_dists)
        half = Fraction(doubled, 2)
        assert half.denominator == 1
        return int(half)
    if name is StatName.MULT_W:
        out = 1
        for d in pair_dists:
            out *= d
        return out
    if name is StatName.POLARITY:
        return sum(1 for d in pair_dists if d == k)
    if name is StatName.SUM_EVEN:
        return sum(d for d in pair_dists if d % 2 == 0)
    if name is StatName.SUM_ODD:
        return sum(d for d in pair_dists if d % 2 == 1)
    if name is StatName.EXIT_SUM:
        return sum(v.exit_distance for v in verts)
    if name is StatName.EXIT_MAX:
        return max(v.exit_distance for v in verts)
    if name is StatName.EXIT_MAX_COUNT:
        top = max(v.exit_distance for v in verts)
        return sum(1 for v in verts if v.exit_distance == top)
    if name is StatName.LEVEL_COUNT:
        return sum(1 for v in verts if v.level == k and v.parent is not None)

    raise UnsupportedName(f"the oracle has no definition for {name.value}")


def _counting_poly(values) -> IntPolynomial:
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    if not counts:
        return IntPolynomial()
    coeffs = [0] * (max(counts) + 1)
    for v, c in counts.items():
        coeffs[v] = c
    return IntPolynomial(coeffs)


def oracle_stat(
    name: StatName,
    t: RootedTree,
    alpha=None,
    k: int | None = None,
    max_vertices: int = 10_000,
):
    return oracle_value(analyze(t, max_vertices), name, alpha=alpha, k=k)


# -- cross-validation helpers ----------------------------------------------

#: parameterless statistics with a composite-case rule, in declaration order
RECURSIVE_STATS = tuple(
    name for name, s in STATISTICS.items() if s.composite and s.param is None
)
#: derived statistics that need no k, or have a default one
DERIVED_STATS = tuple(
    name
    for name, s in STATISTICS.items()
    if s.kind == "derived" and (s.param is None or s.default is not None)
)

_FLOAT_ALPHA = -0.5
_EXACT_ALPHAS = (1, 2, -1)


def _float_close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def compare_all(
    n: int,
    engine: StatsEngine | None = None,
    an: TreeAnalysis | None = None,
) -> list[str]:
    """Compare every statistic's recursion against the oracle for one n.

    Returns a list of mismatch descriptions (empty means full agreement).
    """
    engine = engine if engine is not None else stats.default_engine()
    if an is None:
        an = analyze(decode(n))
    problems: list[str] = []

    def check(label: str, got, want, approx=False):
        ok = _float_close(got, want) if approx else got == want
        if not ok:
            problems.append(f"n={n} {label}: recursion {got!r} != oracle {want!r}")

    for name in RECURSIVE_STATS:
        check(name.value, engine.compute(name, n), oracle_value(an, name))
    for name in ALPHA_STATS:
        for a in _EXACT_ALPHAS:
            check(
                f"{name.value}[alpha={a}]",
                engine.compute(name, n, alpha=a),
                oracle_value(an, name, alpha=a),
            )
        check(
            f"{name.value}[alpha={_FLOAT_ALPHA}]",
            engine.compute(name, n, alpha=_FLOAT_ALPHA),
            oracle_value(an, name, alpha=_FLOAT_ALPHA),
            approx=True,
        )
    for name in DERIVED_STATS:
        check(name.value, engine.compute(name, n), oracle_value(an, name))
    height = max(v.level for v in an.vertices)
    for k in range(0, height + 2):
        check(
            f"LEVEL_COUNT[k={k}]",
            engine.compute(StatName.LEVEL_COUNT, n, k=k),
            oracle_value(an, StatName.LEVEL_COUNT, k=k),
        )
    return problems


def random_split_check(n: int, rng_seed: int, engine: StatsEngine | None = None) -> bool:
    """Recompute each recursive statistic at a random split r*s = n.

    The split is drawn uniformly from the nontrivial divisors; statistics
    whose composite rule assumes a prime r draw r from the prime factors
    instead.  True iff everything matches the canonical computation.
    """
    engine = engine if engine is not None else stats.default_engine()
    fz = primes.factorize(n)
    if fz.omega < 2:
        raise InvalidInput(f"{n} is not composite")
    rng = random.Random(rng_seed)

    divisors = _nontrivial_divisors(fz)
    r = rng.choice(divisors)
    s = n // r
    prime_r = rng.choice([p for p, _ in fz.factors])
    prime_s = n // prime_r

    for name in RECURSIVE_STATS:
        a, b = (prime_r, prime_s) if STATISTICS[name].prime_split else (r, s)
        if engine.composite_value(name, a, b) != engine.compute(name, n):
            return False
    for name in ALPHA_STATS:
        for alpha in _EXACT_ALPHAS:
            want = engine.compute(name, n, alpha=alpha)
            if engine.composite_value(name, r, s, alpha=alpha) != want:
                return False
    return True


def _nontrivial_divisors(fz: primes.Factorization) -> list[int]:
    divisors = [1]
    for p, mult in fz.factors:
        divisors = [d * p**e for d in divisors for e in range(mult + 1)]
    n = fz.product()
    out = sorted(d for d in divisors if 1 < d < n)
    return out
