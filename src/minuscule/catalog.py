"""
Constructors for every connected finite colored minuscule poset family.

Colors are the integers 1..n in the Kac node numbering, so each family
constructor directly yields the representative with the documented maximal
color: chains of type A carry color 1 on top, grids of type A carry their
defining index, type B carries n (the short node), type C carries 1, type D
standard carries 1, type D spin carries n, E6 carries 1 and E7 carries 6.

`indexed` relabels these representatives through the automorphisms of the
Kac-numbered diagram (`kac_automorphisms`) to produce one poset per minuscule
weight index, and `family_of` names the family of each index.

Two tables hold which families and weights exist: `FAMILIES` (kind -> type
letter, ranks, whether it takes an index, constructor) and `_TYPES` (letter ->
ranks, diagram, minuscule nodes).  `FamilyId` validation, `build`,
`all_family_ids`, `diagram_of_type`, `minuscule_indices`, `indexed` and the
command line's `--family` names all read them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
from typing import Iterable

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
    "top_tree_Y",
    "all_family_ids",
    "minuscule_indices",
]


class BadParameters(ValueError):
    pass


class NotAMinusculeWeight(ValueError):
    pass


@dataclass(frozen=True, order=True)
class FamilyId:
    """One family of the classification, e.g. FamilyId("A_exterior", 4, 2)."""

    kind: str
    n: int = 0
    j: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAMILIES:
            raise BadParameters(f"unknown family kind {self.kind!r}")
        _, least, most, indexed, _ = FAMILIES[self.kind]
        n, j = self.n, self.j
        if not (least <= n <= most and (2 <= j <= n - 1 if indexed else j == 0)):
            raise BadParameters(f"bad parameters for {self.kind}: n={n}, j={j}")

    def __str__(self) -> str:
        _, least, most, indexed, _ = FAMILIES[self.kind]
        if indexed:
            return f"{self.kind}({self.n},{self.j})"
        return self.kind if least == most else f"{self.kind}({self.n})"

    def sort_key(self) -> tuple:
        return (list(FAMILIES).index(self.kind), self.n, self.j)


# -- diagram templates ---------------------------------------------------------


def _tree_rows(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The pairing rows of nodes 1..n joined by the given single edges."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for a, b in edges:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = -1
    return rows


def _numbered(rows: list[list[int]]) -> DynkinDiagram:
    """The diagram on colors 1..n with the given rows, integers already."""
    return DynkinDiagram(tuple(range(1, len(rows) + 1)), tuple(map(tuple, rows)))


def _path_diagram(n: int) -> DynkinDiagram:
    return _numbered(_tree_rows(n, [(t, t + 1) for t in range(1, n)]))


def _bc_diagram(n: int, letter: str) -> DynkinDiagram:
    rows = _tree_rows(n, [(t, t + 1) for t in range(1, n)])
    if letter == "B":
        # short node n: theta[n-1][n] = -2, theta[n][n-1] = -1
        rows[n - 2][n - 1] = -2
    else:
        rows[n - 1][n - 2] = -2
    return _numbered(rows)


def _d_diagram(n: int) -> DynkinDiagram:
    # path 1..n-2 with nodes n-1 and n both attached to node n-2
    edges = [(t, t + 1) for t in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    return _numbered(_tree_rows(n, edges))


def _e_diagram(n: int) -> DynkinDiagram:
    # path 1..n-1 with node n attached to node 3
    edges = [(t, t + 1) for t in range(1, n - 1)] + [(3, n)]
    return _numbered(_tree_rows(n, edges))


# type letter -> (least rank, most rank, the Kac-numbered diagram of rank n,
# its minuscule nodes), in the order `minuscule_indices` lists them
_TYPES = {
    "A": (1, inf, _path_diagram, lambda n: range(1, n + 1)),
    "B": (2, inf, lambda n: _bc_diagram(n, "B"), lambda n: (n,)),
    "C": (3, inf, lambda n: _bc_diagram(n, "C"), lambda n: (1,)),
    "D": (4, inf, _d_diagram, lambda n: (1, n - 1, n)),
    "E": (6, 7, _e_diagram, lambda n: {6: (1, 5), 7: (6,)}[n]),
}


def diagram_of_type(letter: str, n: int) -> DynkinDiagram:
    if letter not in _TYPES:
        raise BadParameters(f"unknown type letter {letter!r}")
    least, most, diagram, _ = _TYPES[letter]
    if not least <= n <= most:
        span = f"n >= {least}" if most == inf else f"{least} <= n <= {most}"
        raise BadParameters(f"type {letter} needs {span}, got n={n}")
    return diagram(n)


# -- poset constructors --------------------------------------------------------


def _chain(diagram: DynkinDiagram, colors_top_down: list[int]) -> ColoredPoset:
    n = len(colors_top_down)
    coloring = {i + 1: colors_top_down[i] for i in range(n)}
    covers = [(i + 1, i) for i in range(1, n)]  # element i+1 sits below element i
    return ColoredPoset(diagram, coloring, covers)


def _cells(
    diagram: DynkinDiagram, cells: list[tuple[int, int]], color, slant: int
) -> ColoredPoset:
    """The poset on the cells (r, c), numbered 1, 2, .. in the order given, in
    which each cell covers (r, c + 1) and (r + 1, c + slant) where they exist."""
    ids = {rc: x for x, rc in enumerate(cells, 1)}
    coloring = {x: color(*rc) for rc, x in ids.items()}
    covers = [
        (ids[below], x)
        for (r, c), x in ids.items()
        for below in ((r, c + 1), (r + 1, c + slant))
        if below in ids
    ]
    return ColoredPoset(diagram, coloring, covers)


def _grid(diagram: DynkinDiagram, n: int, m: int) -> ColoredPoset:
    """Type A grid for index m: rows 1..m, columns 1..n+1-m, cell (1,1) maximal
    with color m, cell colors m - r + c along diagonals."""
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, n + 2 - m)]
    return _cells(diagram, cells, lambda r, c: m - r + c, 0)


def _type_b(diagram: DynkinDiagram, n: int) -> ColoredPoset:
    """Staircase with rows of lengths n, n-1, .., 1; row cells colored n, n-1, ..
    left to right; unique maximum colored n."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 2 - r)]
    return _cells(diagram, cells, lambda r, c: n + 1 - c, -1)


def _type_d_standard(diagram: DynkinDiagram, n: int) -> ColoredPoset:
    """Chain 1..n-2, the incomparable pair {n-1, n}, then the chain back down."""
    coloring: dict[int, int] = {}
    covers: list[tuple[int, int]] = []
    for i in range(1, n - 1):
        coloring[i] = i
        if i > 1:
            covers.append((i, i - 1))
    top_of_diamond = n - 2
    left, right = n - 1, n
    coloring[left] = n - 1
    coloring[right] = n
    covers += [(left, top_of_diamond), (right, top_of_diamond)]
    prev = [left, right]
    for step, color in enumerate(range(n - 2, 0, -1)):
        x = n + 1 + step
        coloring[x] = color
        for z in prev:
            covers.append((x, z))
        prev = [x]
    return ColoredPoset(diagram, coloring, covers)


def _type_d_spin(diagram: DynkinDiagram, n: int) -> ColoredPoset:
    """Shifted staircase on cells (r, c), 1 <= r <= c <= n-1; the diagonal
    alternates between the fork colors n and n-1 starting from the maximal
    cell (1,1)."""

    def color(r: int, c: int) -> int:
        x = c - r
        if x == 0:
            return n if r % 2 == 1 else n - 1
        if x == 1:
            return n - 2
        return n - 1 - x

    cells = [(r, c) for r in range(1, n) for c in range(r, n)]
    return _cells(diagram, cells, color, 0)


# E6/E7 tables: (element, color, elements covering it), maxima first.
_E6_TABLE = [
    (1, 1, []),
    (2, 2, [1]),
    (3, 3, [2]),
    (4, 4, [3]),
    (5, 6, [3]),
    (6, 5, [4]),
    (7, 3, [4, 5]),
    (8, 4, [6, 7]),
    (9, 2, [7]),
    (10, 3, [8, 9]),
    (11, 1, [9]),
    (12, 6, [10]),
    (13, 2, [10, 11]),
    (14, 3, [12, 13]),
    (15, 4, [14]),
    (16, 5, [15]),
]

_E7_TABLE = [
    (1, 6, []),
    (2, 5, [1]),
    (3, 4, [2]),
    (4, 3, [3]),
    (5, 2, [4]),
    (6, 7, [4]),
    (7, 1, [5]),
    (8, 3, [5, 6]),
    (9, 2, [7, 8]),
    (10, 4, [8]),
    (11, 5, [10]),
    (12, 3, [9, 10]),
    (13, 4, [11, 12]),
    (14, 6, [11]),
    (15, 7, [12]),
    (16, 5, [13, 14]),
    (17, 3, [13, 15]),
    (18, 4, [16, 17]),
    (19, 2, [17]),
    (20, 1, [19]),
    (21, 3, [18, 19]),
    (22, 2, [20, 21]),
    (23, 7, [21]),
    (24, 3, [22, 23]),
    (25, 4, [24]),
    (26, 5, [25]),
    (27, 6, [26]),
]


def _from_table(diagram: DynkinDiagram, table) -> ColoredPoset:
    coloring = {x: c for x, c, _ in table}
    covers = [(x, up) for x, _, ups in table for up in ups]
    return ColoredPoset(diagram, coloring, covers)


# kind -> (type letter, least rank, most rank, takes an index j, constructor
# from the Kac-numbered diagram, n and j), in sort order.  Only A_exterior
# takes an index, 2 <= j <= n - 1; every other family has j = 0.
FAMILIES = {
    "A_standard": ("A", 1, inf, False, lambda d, n, j: _chain(d, range(1, n + 1))),
    "A_exterior": ("A", 3, inf, True, _grid),
    "B": ("B", 2, inf, False, lambda d, n, j: _type_b(d, n)),
    "C": ("C", 3, inf, False, lambda d, n, j: _chain(d, [*range(1, n), *range(n, 0, -1)])),
    "D_standard": ("D", 4, inf, False, lambda d, n, j: _type_d_standard(d, n)),
    "D_spin": ("D", 5, inf, False, lambda d, n, j: _type_d_spin(d, n)),
    "E6": ("E", 6, 6, False, lambda d, n, j: _from_table(d, _E6_TABLE)),
    "E7": ("E", 7, 7, False, lambda d, n, j: _from_table(d, _E7_TABLE)),
}


def build(family: FamilyId) -> ColoredPoset:
    """The family's poset, colored by Kac numbers."""
    letter, _, _, _, construct = FAMILIES[family.kind]
    return construct(diagram_of_type(letter, family.n), family.n, family.j)


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
    """
    The colored minuscule poset for the minuscule weight (letter, n, j); its
    maximal element has color j.
    """
    # an unknown letter has no rank
    least, most, _, nodes = _TYPES.get(letter, (1, 0, None, None))
    if not (least <= n <= most and j in nodes(n)):
        raise NotAMinusculeWeight(f"{letter}_{n}({j}) is not a minuscule weight index")
    base = build(family_of(letter, n, j))
    top = base.color(base.maximal_elements()[0])
    if top == j:
        return base
    # the involution exchanging the two top colors
    sigma = next(s for s in kac_automorphisms(letter, n) if s[top] == j and s[j] == top)
    return base.relabel_colors(sigma)


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
    s = i
    left_first, right_first = i + 1, i + j + 1
    # the path 1..total, but the right leg hangs from s, not from the left leg's end
    edges = [(t, t + 1) for t in range(1, total) if t != i + j] + [(s, right_first)]
    diagram = _numbered(_tree_rows(total, edges))
    coloring = {x: x for x in range(1, total + 1)}
    covers = []
    for t in range(2, i + 1):
        covers.append((t, t - 1))
    covers += [(left_first, s), (right_first, s)]
    for t in range(left_first + 1, i + j + 1):
        covers.append((t, t - 1))
    for t in range(right_first + 1, total + 1):
        covers.append((t, t - 1))
    return ColoredPoset(diagram, coloring, covers)


def all_family_ids(max_n: int) -> list[FamilyId]:
    """Every family id with at most max_n colors (E6/E7 when they fit)."""
    return [
        FamilyId(kind, n, j)
        for kind, (_, least, most, indexed, _) in FAMILIES.items()
        for n in range(least, min(most, max_n) + 1)
        for j in (range(2, n) if indexed else (0,))
    ]
