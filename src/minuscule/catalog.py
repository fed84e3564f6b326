"""
Every connected finite colored minuscule poset, as the heap of a walk.

Colors are the integers 1..n in the Kac node numbering.  A connected colored
minuscule poset is the heap of a reduced word of its minuscule Weyl group
element (Proctor, Stembridge), and that word is the orbit walk down from the
fundamental weight of the top color's node.  `orbit_walk` walks it over the
nonzero pairings of each node's row, listed in any order, and returns the
word and the heap's covers: element t is letter t, the maximum first.  The
rows may come from any diagram read through a Kac numbering, so `classify`
walks a component's own diagram and builds no catalog poset; `_heap` reads
them from the Kac-numbered template and wraps the walk in a `ColoredPoset`.
`indexed(letter, n, j)` walks from node j, and `build(family)` from the
family's top color, a column of `FAMILIES`: chains of type A carry color 1 on
top, grids of type A carry their defining index, type B carries n (the short
node), type C carries 1, type D standard carries 1, type D spin carries n, E6
carries 1 and E7 carries 6.  `family_of` names the family of each index, and
`kac_automorphisms` lists the diagram automorphisms that relate the indices
of one family.

Two tables hold which families and weights exist: `FAMILIES` (kind -> type
letter, ranks, whether it takes an index, top color) and `_TYPES` (letter ->
ranks, diagram, minuscule nodes).  `FamilyId` validation, `build`,
`all_family_ids`, `diagram_of_type`, `minuscule_indices`, `indexed` and the
command line's `--family` names all read them.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from heapq import heappop, heappush
from math import inf
from typing import Sequence

from .dynkin import DynkinDiagram
from .poset import ColoredPoset

__all__ = [
    "FAMILIES",
    "FamilyId",
    "BadParameters",
    "NotAMinusculeWeight",
    "build",
    "indexed",
    "family_of",
    "kac_automorphisms",
    "orbit_walk",
    "top_tree_Y",
    "all_family_ids",
    "minuscule_indices",
]


class BadParameters(ValueError):
    pass


class NotAMinusculeWeight(ValueError):
    pass


class FamilyId(namedtuple("FamilyId", "kind n j", defaults=(0, 0))):
    """One family of the classification, e.g. FamilyId("A_exterior", 4, 2).
    Every way of making one checks its parameters, `_replace` included."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int = 0, j: int = 0) -> "FamilyId":
        if kind not in FAMILIES:
            raise BadParameters(f"unknown family kind {kind!r}")
        _, least, most, indexed, _ = FAMILIES[kind]
        if not (least <= n <= most and (2 <= j <= n - 1 if indexed else j == 0)):
            raise BadParameters(f"bad parameters for {kind}: n={n}, j={j}")
        return super().__new__(cls, kind, n, j)

    @classmethod
    def _make(cls, iterable) -> "FamilyId":
        return cls(*iterable)

    def __str__(self) -> str:
        _, least, most, indexed, _ = FAMILIES[self.kind]
        if indexed:
            return f"{self.kind}({self.n},{self.j})"
        return self.kind if least == most else f"{self.kind}({self.n})"

    def sort_key(self) -> tuple:
        return (_FAMILY_RANK[self.kind], self.n, self.j)


# -- diagram templates ---------------------------------------------------------


def _numbered(n: int, edges: list[tuple[int, int]], double: tuple = ()) -> DynkinDiagram:
    """The diagram on colors 1..n joined by the given edges, each single but
    for theta[a][b] = -2 at the pair (a, b) = double."""
    pairings = [(a, b, -2 if (a, b) == double else -1) for e in edges for a, b in (e, e[::-1])]
    return DynkinDiagram.from_pairings(range(1, n + 1), pairings)


def _path(n: int) -> list[tuple[int, int]]:
    return [(t, t + 1) for t in range(1, n)]


# type letter -> (least rank, most rank, the Kac-numbered diagram of rank n,
# its minuscule nodes), in the order `minuscule_indices` lists them.  B has
# its short node n, theta[n-1][n] = -2, and C its long node n, theta[n][n-1] =
# -2; D is the path 1..n-2 with n-1 and n on n-2, E the path 1..n-1 with n on 3
_TYPES = {
    "A": (1, inf, lambda n: _numbered(n, _path(n)), lambda n: range(1, n + 1)),
    "B": (2, inf, lambda n: _numbered(n, _path(n), (n - 1, n)), lambda n: (n,)),
    "C": (3, inf, lambda n: _numbered(n, _path(n), (n, n - 1)), lambda n: (1,)),
    "D": (4, inf, lambda n: _numbered(n, _path(n - 2) + [(n - 2, n - 1), (n - 2, n)]),
          lambda n: (1, n - 1, n)),
    "E": (6, 7, lambda n: _numbered(n, _path(n - 1) + [(3, n)]), lambda n: {6: (1, 5), 7: (6,)}[n]),
}


def diagram_of_type(letter: str, n: int) -> DynkinDiagram:
    if letter not in _TYPES:
        raise BadParameters(f"unknown type letter {letter!r}")
    least, most, diagram, _ = _TYPES[letter]
    if not least <= n <= most:
        span = f"n >= {least}" if most == inf else f"{least} <= n <= {most}"
        raise BadParameters(f"type {letter} needs {span}, got n={n}")
    return diagram(n)


# -- the orbit walk ------------------------------------------------------------


def orbit_walk(
    letter: str, rows: Sequence[Sequence[tuple[int, int]]], j: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """
    The orbit walk from the fundamental weight of node j of a diagram of type
    letter, numbered 1..n: its word, letter t at index t - 1, and the covers
    (t, u) of its heap, element t below element u.  ``rows[i]`` lists node
    i's nonzero pairings (k, theta[i][k]); ``rows[0]`` is not read.  For a
    minuscule node j the heap is the colored minuscule poset of (letter, n, j)
    (Proctor, Stembridge).

    The weight's coefficients start at c_k = 1 if k == j else 0.  While some
    node i has c_i = 1, the walk takes i as its next letter: c_i becomes -1
    and each neighbour k loses theta[i][k].  Letter t is element t, colored
    i, below the latest earlier letters adjacent to i that come after the
    latest earlier i, or below that i if there are none.

    Of the nodes ready at a step, type A takes the greatest and every other
    type the least.  The orders give one poset, numbered differently: least
    first numbers the type A grids by columns, greatest first by rows, as the
    paper's worked example for A_4(2) reads its word (3, 4, 2, 3, 1, 2).

    A row may list its pairings in any order.  The ready nodes sit in a heap,
    so the next letter does not depend on the order they were pushed in, and
    the updates of one letter's neighbours commute, so every order gives the
    same word and the same set of covers.
    """
    c, last = [int(k == j) for k in range(len(rows))], [0] * len(rows)
    sign = -1 if letter == "A" else 1
    # no coefficient reaches 2 on a minuscule orbit, so no two ready nodes are
    # adjacent, and a ready node stays ready, pushed once, until it is taken
    ready, word, covers = [sign * j], [], []
    while ready:
        i = sign * heappop(ready)
        word.append(i)
        t, previous, found = len(word), last[i], len(covers)
        last[i], c[i] = t, -1
        for k, theta in rows[i]:
            if last[k] > previous:
                covers.append((t, last[k]))
            c[k] -= theta
            if c[k] == 1:
                heappush(ready, sign * k)
        if previous and len(covers) == found:
            covers.append((t, previous))
    return word, covers


def _heap(letter: str, n: int, j: int) -> ColoredPoset:
    """The heap of the orbit walk from node j of the Kac-numbered diagram
    letter_n, colored by Kac numbers."""
    diagram = diagram_of_type(letter, n)
    word, covers = orbit_walk(letter, diagram.numbered_rows({i: i for i in diagram.colors}), j)
    return ColoredPoset(diagram, dict(enumerate(word, 1)), covers)


# kind -> (type letter, least rank, most rank, takes an index j, the Kac
# number of the top color from n and j), in sort order.  Only A_exterior
# takes an index, 2 <= j <= n - 1; every other family has j = 0.
FAMILIES = {
    "A_standard": ("A", 1, inf, False, lambda n, j: 1),
    "A_exterior": ("A", 3, inf, True, lambda n, j: j),
    "B": ("B", 2, inf, False, lambda n, j: n),
    "C": ("C", 3, inf, False, lambda n, j: 1),
    "D_standard": ("D", 4, inf, False, lambda n, j: 1),
    "D_spin": ("D", 5, inf, False, lambda n, j: n),
    "E6": ("E", 6, 6, False, lambda n, j: 1),
    "E7": ("E", 7, 7, False, lambda n, j: 6),
}

# each kind's place in FAMILIES, the first field of `FamilyId.sort_key`
_FAMILY_RANK = {kind: rank for rank, kind in enumerate(FAMILIES)}


def build(family: FamilyId) -> ColoredPoset:
    """The family's poset, colored by Kac numbers: the heap of the orbit walk
    from its top color."""
    letter, _, _, _, top = FAMILIES[family.kind]
    return _heap(letter, family.n, top(family.n, family.j))


def minuscule_indices(max_n: int) -> list[tuple[str, int, int]]:
    """All minuscule weight indices (letter, n, j) with rank at most max_n."""
    return [
        (letter, n, j)
        for letter, (least, most, _, nodes) in _TYPES.items()
        for n in range(least, min(most, max_n) + 1)
        for j in nodes(n)
    ]


def kac_automorphisms(letter: str, n: int) -> list[dict[int, int]]:
    """Every automorphism of the Kac-numbered diagram of type letter_n, the
    identity first."""
    identity = {i: i for i in range(1, n + 1)}
    if letter == "A" and n >= 2:
        return [identity, {i: n + 1 - i for i in identity}]
    if letter == "D" and n == 4:
        return [{1: a, 2: 2, 3: b, 4: c} for a, b, c in itertools.permutations((1, 3, 4))]
    if letter == "D":
        return [identity, {**identity, n - 1: n, n: n - 1}]
    if letter == "E" and n == 6:
        return [identity, {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}]
    return [identity]


def family_of(letter: str, n: int, j: int) -> FamilyId:
    """The family of indexed(letter, n, j): the two are equal up to the names
    of the colors."""
    if letter == "A":
        return FamilyId("A_exterior", n, j) if 1 < j < n else FamilyId("A_standard", n)
    if letter == "D":
        return FamilyId("D_standard" if j == 1 or n == 4 else "D_spin", n)
    return FamilyId(f"E{n}" if letter == "E" else letter, n)


def indexed(letter: str, n: int, j: int) -> ColoredPoset:
    """The colored minuscule poset of the minuscule weight (letter, n, j): the
    heap of the orbit walk from node j, so its maximal element has color j."""
    # an unknown letter has no rank
    least, most, _, nodes = _TYPES.get(letter, (1, 0, None, None))
    if not (least <= n <= most and j in nodes(n)):
        raise NotAMinusculeWeight(f"{letter}_{n}({j}) is not a minuscule weight index")
    return _heap(letter, n, j)


def top_tree_Y(i: int, j: int, k: int) -> ColoredPoset:
    """
    The Y-shaped poset with the identity coloring: a chain of i elements whose
    bottom (the splitting element) covers two chains of j and k elements.

    Each element is its own color; the diagram is the tree itself with single
    edges, so the poset equals its own top tree.
    """
    if i < 1 or j < 1 or k < j:
        raise BadParameters(f"need i >= 1 and k >= j >= 1, got ({i},{j},{k})")
    total = i + j + k
    # the path 1..total, but the right leg hangs from the splitting element i,
    # not from the left leg's end; an edge (t, u), t < u, puts u below t
    edges = [(t, t + 1) for t in range(1, total) if t != i + j] + [(i, i + j + 1)]
    coloring = {x: x for x in range(1, total + 1)}
    return ColoredPoset(_numbered(total, edges), coloring, [(u, t) for t, u in edges])


def all_family_ids(max_n: int) -> list[FamilyId]:
    """Every family id with at most max_n colors (E6/E7 when they fit)."""
    return [
        FamilyId(kind, n, j)
        for kind, (_, least, most, indexed, _) in FAMILIES.items()
        for n in range(least, min(most, max_n) + 1)
        for j in (range(2, n) if indexed else (0,))
    ]
