import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matula import oracle
from matula.errors import BudgetExceeded, InvalidInput
from matula.oracle import (
    analyze,
    compare_all,
    oracle_stat,
    oracle_value,
    random_split_check,
    subtree_counts,
)
from matula.poly import IntPolynomial
from matula.primes import nth_prime
from matula.stats import STATISTICS, StatName, StatsEngine
from matula.tree import decode, encode, parse_canonical_string, to_canonical_string

S = StatName


def _lca_distances(an):
    """dist(i, j) = level i + level j - 2 level(lca), the lca found by
    walking up ``parents``: a distance matrix made without BFS."""
    levels, parents = an.levels, an.parents

    def lca(i, j):
        while levels[i] > levels[j]:
            i = parents[i]
        while levels[j] > levels[i]:
            j = parents[j]
        while i != j:
            i, j = parents[i], parents[j]
        return i

    m = an.vertex_count
    return [[levels[i] + levels[j] - 2 * levels[lca(i, j)] for j in range(m)] for i in range(m)]


def _reference_distance_aggregates(an):
    """(pairs at each distance, distance sum over pendant pairs) from the
    lca distances, with degrees counted from the edge list."""
    dist = _lca_distances(an)
    m = an.vertex_count
    counts = Counter(dist[i][j] for i in range(m) for j in range(i + 1, m))
    degree = Counter(v for edge in an.edges for v in edge)
    pendant = [v for v in range(m) if degree[v] == 1]
    return counts, sum(dist[a][b] for a, b in combinations(pendant, 2))


def test_single_vertex_analysis():
    an = analyze(decode(1))
    assert an.vertex_count == 1
    assert an.degrees == [0]
    assert an.levels == [0]
    assert an.parents == [-1]
    assert an.children == [[]]
    assert an.exits == [0]
    assert an.leaves == [False]  # the lone root does not count as a leaf
    assert an.edges == []
    assert an.distance_counts == Counter()
    assert an.pendant_distance_sum == 0


def test_three_vertex_star_analysis():
    an = analyze(decode(4))
    assert sorted(an.degrees, reverse=True) == [2, 1, 1]
    assert an.distance_counts == Counter({1: 2, 2: 1})
    assert an.pendant_distance_sum == 2  # the two leaves are 2 apart


def test_five_vertex_path_analysis():
    an = analyze(decode(9))
    assert an.vertex_count == 5
    assert oracle_value(an, S.DM) == 4
    assert sorted(an.degrees) == [1, 1, 2, 2, 2]
    assert an.distance_counts == Counter({1: 4, 2: 3, 3: 2, 4: 1})
    assert an.pendant_distance_sum == 4


def test_distance_matrix_shape():
    for n in (1, 4, 9, 60, 2310, 3**10 * 7**3):
        an = analyze(decode(n))
        m = an.vertex_count
        dm = oracle_value(an, S.DM)
        dist = _lca_distances(an)
        for i in range(m):
            assert dist[i][i] == 0
            for j in range(m):
                assert dist[i][j] == dist[j][i]
                assert 0 <= dist[i][j] <= dm
        assert sum(an.degrees) == 2 * len(an.edges)
        assert (an.distance_counts, an.pendant_distance_sum) == (
            _reference_distance_aggregates(an)
        )


def test_analysis_memory_tracks_the_tree_not_its_square():
    t = decode(2**1000)  # a star with 1001 vertices: 500500 pairs
    tracemalloc.start()
    try:
        an = analyze(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert an.distance_counts == Counter({1: 1000, 2: 499500})
    assert peak < 2 * 2**20


def test_oracle_spot_values():
    assert oracle_stat(S.W, decode(9)) == 20
    assert oracle_stat(S.VL, decode(1)) == 1
    assert oracle_stat(S.PWP, decode(2)) == IntPolynomial((0, 1))
    assert oracle_stat(S.EDP, decode(1)) == IntPolynomial((1,))
    assert oracle_stat(S.NK, decode(9)) == 8
    assert oracle_stat(S.MZ2, decode(1)) == 0


def test_subtree_counts_of_star():
    an = analyze(decode(4))
    # 3 single vertices + 2 edges + the whole star
    assert oracle._subtrees_by_enumeration(an) == (6, 4)
    assert oracle._subtrees_by_dp(an) == (6, 4)


def test_enumeration_matches_dp():
    for n in range(1, 400):
        an = analyze(decode(n))
        assert oracle._subtrees_by_enumeration(an) == oracle._subtrees_by_dp(an)


def test_enumeration_budget():
    big = analyze(decode(3 ** 17))  # 35 vertices, 129140214 subtrees
    assert oracle._subtrees_by_enumeration(big) is None
    assert subtree_counts(big) == oracle._subtrees_by_dp(big) == (129140214, 129140163)
    # 21 vertices, past the old cap of 16, and 59079 <= 2**16 subtrees
    an = analyze(decode(3 ** 10))
    assert an.vertex_count == 21
    assert oracle._subtrees_by_enumeration(an) == oracle._subtrees_by_dp(an) == (59079, 59049)


def test_trees_past_the_budget_are_never_enumerated(monkeypatch):
    enumerated = []
    enumerate_subtrees = oracle._subtrees_by_enumeration

    def spy(an):
        enumerated.append(an.vertex_count)
        return enumerate_subtrees(an)

    monkeypatch.setattr(oracle, "_subtrees_by_enumeration", spy)
    big = analyze(decode(2**40))  # the star with 40 leaves: 2**40 + 40 subtrees
    assert subtree_counts(big) == (2**40 + 40, 2**40)
    assert enumerated == []
    assert subtree_counts(analyze(decode(4))) == (6, 4)
    assert enumerated == [3]


def test_analysis_budget():
    with pytest.raises(BudgetExceeded) as exc:
        analyze(decode(2 ** 10000))  # a star with 10001 vertices
    assert str(exc.value) == "tree exceeds the oracle budget of 10000 vertices"
    assert (exc.value.needed, exc.value.limit) == (10001, 10000)


def _exit_labels_by_procedure(an):
    """Label leaves 0, then unlabeled parents of k-labeled vertices get k+1."""
    n = an.vertex_count
    labels = {i: 0 for i, leaf in enumerate(an.leaves) if leaf}
    if n == 1:
        labels[0] = 0
    k = 0
    while len(labels) < n:
        parents = {
            an.parents[i] for i, lab in labels.items() if lab == k and an.parents[i] >= 0
        }
        k += 1
        for p in parents:
            if p not in labels:
                labels[p] = k
    return [labels[i] for i in range(n)]


def test_exit_labels_follow_labeling_procedure():
    for n in list(range(1, 200)) + [987654321]:
        an = analyze(decode(n))
        labels = _exit_labels_by_procedure(an)
        assert labels == an.exits
        counted = {}
        for lab in labels:
            counted[lab] = counted.get(lab, 0) + 1
        edp = oracle_value(an, S.EDP)
        assert [counted.get(k, 0) for k in range(len(edp.coeffs))] == list(edp.coeffs)


def test_recursions_match_oracle_sample():
    engine = StatsEngine()
    for n in range(1, 300):
        assert compare_all(n, engine) == []


def test_compare_all_flags_disagreement():
    engine = StatsEngine()
    engine._memo.setdefault(("W", None), {})[9] = 21  # sabotage the memo
    problems = compare_all(9, engine)
    assert any("W" in p for p in problems)


def test_compare_all_flags_float_alpha_disagreement():
    engine = StatsEngine()
    engine._memo.setdefault(("R_ALPHA", -0.5), {})[9] = 9.5  # the float-alpha memo
    problems = compare_all(9, engine)
    assert len(problems) == 1
    assert problems[0].startswith("n=9 R_ALPHA[alpha=-0.5]: recursion 9.5 != oracle")


def test_compare_all_flags_level_count_disagreement():
    engine = StatsEngine()
    # 9 is the 5-vertex path rooted at its centre: PWP(9) = 2x + 2x^2
    engine._memo.setdefault(("PWP", None), {})[9] = (2 << 64) | (3 << 128)  # 2x + 3x^2, packed
    problems = compare_all(9, engine)
    assert "n=9 LEVEL_COUNT[k=2]: recursion 3 != oracle 2" in problems
    assert not any("LEVEL_COUNT[k=1]" in p for p in problems)


def test_every_statistic_has_one_oracle_definition():
    assert set(oracle._DEFINITIONS) == set(StatName)


def test_oracle_parameter_conventions():
    an = analyze(decode(9))
    for name in (S.A_ALPHA, S.R_ALPHA):
        with pytest.raises(InvalidInput, match=f"^{name.value} requires alpha$"):
            oracle_value(an, name)
    with pytest.raises(InvalidInput, match="^LEVEL_COUNT requires k$"):
        oracle_value(an, S.LEVEL_COUNT)
    assert oracle_value(an, S.POLARITY) == oracle_value(an, S.POLARITY, k=3) == 2
    # exact alphas give int or Fraction, the others float
    assert oracle_value(an, S.R_ALPHA, alpha=-1) == Fraction(3, 2)
    assert type(oracle_value(an, S.A_ALPHA, alpha=2.0)) is int
    empty_sum = oracle_value(analyze(decode(1)), S.R_ALPHA, alpha=-0.5)
    assert empty_sum == 0.0 and type(empty_sum) is float


def test_oracle_rejects_parameters_a_statistic_does_not_take():
    an = analyze(decode(9))
    with pytest.raises(InvalidInput, match="^W takes no k parameter$"):
        oracle_value(an, S.W, k=5)
    with pytest.raises(InvalidInput, match="^W takes no alpha parameter$"):
        oracle_value(an, S.W, alpha=2)
    engine = StatsEngine()
    for name, stat in STATISTICS.items():
        for kw in ({"alpha": 2}, {"k": 1}):
            if stat.param in kw:
                continue
            with pytest.raises(InvalidInput) as want:
                engine.compute(name, 9, **kw)
            with pytest.raises(InvalidInput, match=f"^{want.value}$"):
                oracle_value(an, name, **kw)


def test_engine_matches_networkx():
    nx = pytest.importorskip("networkx")
    engine = StatsEngine()
    for n in range(1, 501):
        an = analyze(decode(n))
        g = nx.Graph(an.edges)
        g.add_node(0)  # the single vertex has no edge
        assert engine.compute(S.W, n) == nx.wiener_index(g)
        assert engine.compute(S.DM, n) == nx.diameter(g)
        degrees = Counter(d for _, d in g.degree())
        assert engine.compute(S.DSP, n) == IntPolynomial(
            [degrees[d] for d in range(max(degrees) + 1)]
        )


def test_random_split_check_unique_split():
    assert random_split_check(4, rng_seed=0)


def test_random_split_check_small_composites():
    engine = StatsEngine()
    for seed in range(10):
        assert random_split_check(12, seed, engine)
    for n in (6, 30, 360, 1024, 999999):
        assert random_split_check(n, 7, engine)


def test_random_split_check_worked_example():
    assert random_split_check(987654321, rng_seed=42)


def test_random_split_check_rejects_primes():
    with pytest.raises(InvalidInput):
        random_split_check(13, 0)
    with pytest.raises(InvalidInput):
        random_split_check(1, 0)


def test_random_split_sampling_is_seeded():
    rng = random.Random(31337)
    engine = StatsEngine()
    for _ in range(50):
        n = rng.randrange(4, 20000)
        if len(decode(n).children) >= 2:
            assert random_split_check(n, rng.randrange(2**31), engine)


def test_random_split_draws_a_divisor_without_listing_them():
    n = 2**20 * 3**20 * 5**20 * 7**20  # 194481 divisors
    engine = StatsEngine()
    tracemalloc.start()
    try:
        ok = random_split_check(n, 5, engine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 2 * 2**20


def test_big_trees_match_the_oracle():
    """20 seeded trees of 500 to 600 vertices: stars 2**k, the trees
    3**k, and products of powers of primes below 1024 (whose factors stay
    in trial division).  Each is checked by compare_all and a random
    split and, when networkx is installed, its W by ``wiener_index``."""
    try:
        import networkx as nx
    except ImportError:
        nx = None
    rng = random.Random(20111118)
    engine = StatsEngine()
    small_primes = [nth_prime(i) for i in range(1, 173)]  # 2 .. 1021
    ns = [2 ** rng.randrange(500, 560) for _ in range(3)]
    ns += [3 ** rng.randrange(250, 280) for _ in range(3)]
    while len(ns) < 20:
        target = rng.randrange(500, 560)
        factors = rng.sample(small_primes, rng.randint(2, 8))
        n = 1
        while engine.compute(S.V, n) < target:
            n *= rng.choice(factors)
        ns.append(n)
    for n in ns:
        an = analyze(decode(n))
        assert 500 <= an.vertex_count <= 600
        assert compare_all(n, engine, an) == []
        assert random_split_check(n, rng.randrange(2**31), engine)
        if nx is not None:
            assert engine.compute(S.W, n) == nx.wiener_index(nx.Graph(an.edges))


def test_trees_of_600_to_3000_vertices_match_the_oracle():
    """The star 2**3000 (3001 vertices) against the engine and its closed
    forms, and 3**300 (601 vertices) through compare_all."""
    an = analyze(decode(2**3000))
    assert an.vertex_count == 3001
    engine = StatsEngine()
    star = {
        S.V: 3001,
        S.E: 3000,
        S.H: 1,
        S.W: 3000**2,
        S.TW: 3000 * 2999,
        S.WP: IntPolynomial((0, 3000, 3000 * 2999 // 2)),
    }
    for name, want in star.items():
        assert oracle_value(an, name) == engine.compute(name, 2**3000) == want, name
    an = analyze(decode(3**300))
    assert an.vertex_count == 601
    assert compare_all(3**300, engine, an) == []


@st.composite
def _trees(draw):
    """A parenthesized tree, children in drawn order, and its vertex count.

    At most 40 vertices.  Draws where a subtree below the root has a
    Matula number past 10**6 are rejected, so that no ``nth_prime`` call
    asks for more than the 10**6-th prime.
    """
    size = draw(st.integers(1, 40))
    children: list[list[int]] = [[]]
    for v in range(1, size):
        children[draw(st.integers(0, v - 1))].append(v)
        children.append([])
    numbers = [1] * size  # children come after their parent
    for v in range(size - 1, 0, -1):
        numbers[v] = prod(nth_prime(numbers[c]) for c in children[v])
        assume(numbers[v] <= 10**6)

    def paren(u):
        return "(" + "".join(paren(c) for c in children[u]) + ")"

    return paren(0), size


@settings(max_examples=40, deadline=None)
@given(_trees(), st.integers(0, 2**31 - 1))
def test_random_trees_round_trip_and_match_the_oracle(drawn, seed):
    text, size = drawn
    t = parse_canonical_string(text)
    n = encode(t)
    canonical = to_canonical_string(t)
    assert len(canonical) == len(text) == 2 * size
    assert to_canonical_string(decode(n)) == canonical
    assert encode(parse_canonical_string(canonical)) == n
    an = analyze(t)
    assert an.vertex_count == size
    assert (an.distance_counts, an.pendant_distance_sum) == (
        _reference_distance_aggregates(an)
    )
    engine = StatsEngine()
    assert compare_all(n, engine, an) == []
    if len(t.children) >= 2:  # n is composite
        assert random_split_check(n, seed, engine)


def _walk(t, parent=-1, level=0, rows=None):
    """[parent, children, level, exit distance] per vertex of t in canonical
    preorder, from a recursive walk."""
    rows = [] if rows is None else rows
    row = [parent, [], level, 0]
    i = len(rows)
    rows.append(row)
    for child in t.children:
        row[1].append(len(rows))
        _walk(child, i, level + 1, rows)
    if row[1]:
        row[3] = 1 + min(rows[c][3] for c in row[1])
    return rows


@settings(max_examples=40, deadline=None)
@given(_trees())
@example(("()", 1))
def test_analysis_columns_match_a_recursive_walk(drawn):
    t = parse_canonical_string(drawn[0])
    an = analyze(t)
    parents, children, levels, exits = (list(column) for column in zip(*_walk(t)))
    edges = [(p, i) for i, p in enumerate(parents) if p >= 0]
    degree = Counter(v for edge in edges for v in edge)
    assert an.vertex_count == len(parents) == drawn[1]
    assert (an.parents, an.children, an.levels, an.exits) == (parents, children, levels, exits)
    assert an.edges == edges
    assert an.degrees == [degree[i] for i in range(len(parents))]
    assert an.leaves == [len(parents) > 1 and not kids for kids in children]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 60), max_size=30), st.sampled_from([-1, -2, -3]))
def test_negative_alpha_sum_is_the_per_term_fraction_sum(bases, alpha):
    assert oracle._inverse_power_sum(bases, -alpha) == sum(
        Fraction(b) ** alpha for b in bases
    )
