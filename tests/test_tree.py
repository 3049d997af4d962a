import json
import random

import pytest

from matula import primes, tree
from matula.errors import CapacityExceeded, InvalidInput, ParseError
from matula.primes import PrimeSieve
from matula.tree import (
    RootedTree,
    decode,
    encode,
    parse_canonical_string,
    to_canonical_string,
    to_dot,
    to_json,
    to_json_dict,
)


def test_decode_one_is_single_vertex():
    t = decode(1)
    assert t.children == ()
    assert t.matula == 1


def test_decode_four_is_two_leaf_star():
    t = decode(4)
    assert len(t.children) == 2
    assert all(not c.children for c in t.children)


def test_decode_worked_example():
    t = decode(987654321)
    assert len(t.children) == 5
    assert [c.matula for c in t.children] == [2, 2, 7, 7, 32277]


def test_decode_never_rebuilds_n_from_nth_prime(monkeypatch):
    def refuse(self, m):
        raise AssertionError(f"nth_prime({m}) called")

    tree._decode.cache_clear()
    monkeypatch.setattr(PrimeSieve, "nth_prime", refuse)
    try:
        t = decode(987654321)
        want = "((())(())((()()))((()()))((())(()())(()((())))(()()()())))"
        assert (t.matula, to_canonical_string(t)) == (987654321, want)
    finally:
        tree._decode.cache_clear()


def test_encode_base_cases():
    assert encode(RootedTree()) == 1
    assert encode(RootedTree([RootedTree()])) == 2
    assert encode(RootedTree([RootedTree(), RootedTree()])) == 4


def test_decode_rejects_bad_input():
    with pytest.raises(InvalidInput):
        decode(0)
    with pytest.raises(InvalidInput):
        decode(-7)
    with pytest.raises(InvalidInput):
        decode("12")


def test_encode_rejects_non_tree():
    with pytest.raises(InvalidInput):
        encode(12)


def test_bijection_range():
    for n in range(1, 2001):
        assert encode(decode(n)) == n


def test_bijection_random_large():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        assert encode(decode(n)) == n


def test_root_degree_equals_omega():
    for n in range(2, 500):
        assert len(decode(n).children) == primes.factorize(n).omega


def test_child_order_does_not_matter():
    rng = random.Random(5)
    for n in (12, 60, 360, 2048, 9699690):
        kids = list(decode(n).children)
        for _ in range(5):
            rng.shuffle(kids)
            assert RootedTree(kids).matula == n


def test_children_stored_in_canonical_order():
    for n in (12, 90, 987654321):
        kids = decode(n).children
        assert [c.matula for c in kids] == sorted(c.matula for c in kids)


def test_canonical_string_basics():
    assert to_canonical_string(decode(1)) == "()"
    assert to_canonical_string(decode(4)) == "(()())"
    assert encode(parse_canonical_string("(()())")) == 4


def test_canonical_string_roundtrip():
    for n in range(1, 800):
        s = to_canonical_string(decode(n))
        assert to_canonical_string(parse_canonical_string(s)) == s
        assert encode(parse_canonical_string(s)) == n


def test_parse_normalizes_child_order():
    # same multiset of subtrees, written in the non-canonical order
    t = parse_canonical_string("((())())")
    assert encode(t) == 6
    assert to_canonical_string(t) == to_canonical_string(decode(6)) == "(()(()))"


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("(", 1),
        ("(()", 3),
        (")", 0),
        ("())", 2),
        ("()()", 2),
        ("(a)", 1),
        ("() ", 2),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_canonical_string(text)
    assert exc.value.offset == offset


def test_json_export():
    payload = json.loads(to_json(decode(4)))
    assert payload == {
        "matula": "4",
        "children": [
            {"matula": "1", "children": []},
            {"matula": "1", "children": []},
        ],
    }
    assert to_json_dict(decode(1)) == {"matula": "1", "children": []}


def test_dot_export():
    dot = to_dot(decode(4))
    assert dot.startswith("digraph")
    assert 'n0 [label="4"]' in dot
    assert dot.count("->") == 2
    assert "n0 -> n1" in dot and "n0 -> n2" in dot


def test_dot_is_deterministic():
    assert to_dot(decode(360)) == to_dot(decode(360))


def test_capacity_propagates_from_primes(monkeypatch):
    tiny = PrimeSieve(initial_bound=10, ceiling=50)
    monkeypatch.setattr(primes, "_default", tiny)
    tree._decode.cache_clear()
    try:
        with pytest.raises(CapacityExceeded):
            decode(10007**2)  # factorization needs primes past the ceiling
        # encode side: growing a chain eventually needs nth_prime past 50
        t = RootedTree()
        with pytest.raises(CapacityExceeded):
            for _ in range(10):
                t = RootedTree([t])
    finally:
        tree._decode.cache_clear()
