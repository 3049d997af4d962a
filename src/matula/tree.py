"""Rooted trees and the Matula bijection.

decode(n) turns a positive integer into its rooted tree: 1 is the single
vertex, a prime p becomes a root whose only child subtree is the tree of
the prime's index, and a composite r*s is the r- and s-trees merged at
their roots.  encode is the inverse: a tree's number is the product of
nth_prime(child number) over the root's children.

Trees are immutable and canonical: children are kept sorted ascending by
their Matula numbers, which makes the parenthesized serialization unique
per integer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import primes
from .errors import InvalidInput, ParseError


class RootedTree:
    """Immutable rooted tree; do not mutate after construction.

    ``matula`` is computed at construction from the children's numbers,
    so building a tree reads the shared prime sieve and can raise
    CapacityExceeded for trees whose number exceeds the sieve ceiling.
    """

    __slots__ = ("children", "matula")

    def __init__(self, children: Iterable["RootedTree"] = ()):
        kids = tuple(sorted(children, key=lambda c: c.matula))
        sieve = primes.default_sieve()
        m = 1
        for child in kids:
            m *= sieve.nth_prime(child.matula)
        self.children = kids
        self.matula = m

    @classmethod
    def _known(cls, children: tuple["RootedTree", ...], matula: int) -> "RootedTree":
        """The tree with these children, already in canonical order, and number."""
        t = cls.__new__(cls)
        t.children = children
        t.matula = matula
        return t

    def __eq__(self, other):
        if isinstance(other, RootedTree):
            return self.matula == other.matula
        return NotImplemented

    def __hash__(self):
        return hash(self.matula)

    def __repr__(self):
        return f"RootedTree(matula={self.matula})"


def decode(n: int) -> RootedTree:
    """Return the rooted tree whose Matula number is n."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidInput(f"Matula numbers are positive integers, got {n!r}")
    if n < 1:
        raise InvalidInput(f"Matula numbers are positive integers, got {n}")
    return _decode(n)


@lru_cache(maxsize=None)
def _decode(n: int) -> RootedTree:
    # Ascending primes have ascending indices, so the children come out in
    # canonical order, and n is the tree's number as given.
    kids: list[RootedTree] = []
    if n > 1:
        sieve = primes.default_sieve()
        for p, k in sieve.factorize(n).factors:
            kids.extend([_decode(sieve.prime_index(p))] * k)
    return RootedTree._known(tuple(kids), n)


def encode(t: RootedTree) -> int:
    """Return the Matula number of a rooted tree."""
    if not isinstance(t, RootedTree):
        raise InvalidInput(f"expected a RootedTree, got {type(t).__name__}")
    return t.matula


# -- canonical parenthesized form ---------------------------------------


def to_canonical_string(t: RootedTree) -> str:
    """Serialize as "(" tree* ")" with children in canonical order."""
    parts: list[str] = []

    def emit(node: RootedTree) -> None:
        parts.append("(")
        for child in node.children:
            emit(child)
        parts.append(")")

    emit(t)
    return "".join(parts)


def parse_canonical_string(s: str) -> RootedTree:
    """Parse a balanced-parenthesis tree; children are re-canonicalized."""
    stack: list[list[RootedTree]] = []
    root: RootedTree | None = None
    for i, ch in enumerate(s):
        if root is not None:
            raise ParseError("trailing input after complete tree", i)
        if ch == "(":
            stack.append([])
        elif ch == ")":
            if not stack:
                raise ParseError("unmatched ')'", i)
            node = RootedTree(stack.pop())
            if stack:
                stack[-1].append(node)
            else:
                root = node
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    if root is None:
        raise ParseError("unexpected end of input", len(s))
    return root


# -- export formats ------------------------------------------------------


def to_json_dict(t: RootedTree) -> dict:
    """Nested {"matula": decimal string, "children": [...]} objects."""
    return {
        "matula": str(t.matula),
        "children": [to_json_dict(c) for c in t.children],
    }


def to_json(t: RootedTree, indent: int | None = None) -> str:
    import json  # off the import path of every other command

    return json.dumps(to_json_dict(t), indent=indent)


def to_dot(t: RootedTree) -> str:
    """DOT digraph; nodes are labeled with the Matula number of their subtree."""
    lines = ["digraph matula {"]
    counter = 0

    def emit(node: RootedTree) -> int:
        nonlocal counter
        me = counter
        counter += 1
        lines.append(f'  n{me} [label="{node.matula}"];')
        for child in node.children:
            them = emit(child)
            lines.append(f"  n{me} -> n{them};")
        return me

    emit(t)
    lines.append("}")
    return "\n".join(lines)
