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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .dynkin import DynkinDiagram
from .poset import ColoredPoset

__all__ = [
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


_KINDS = ("A_standard", "A_exterior", "B", "C", "D_standard", "D_spin", "E6", "E7")


@dataclass(frozen=True, order=True)
class FamilyId:
    """One family of the classification, e.g. FamilyId("A_exterior", 4, 2)."""

    kind: str
    n: int = 0
    j: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise BadParameters(f"unknown family kind {self.kind!r}")
        k, n, j = self.kind, self.n, self.j
        ok = {
            "A_standard": n >= 1 and j == 0,
            "A_exterior": n >= 3 and 2 <= j <= n - 1,
            "B": n >= 2 and j == 0,
            "C": n >= 3 and j == 0,
            "D_standard": n >= 4 and j == 0,
            "D_spin": n >= 5 and j == 0,
            "E6": n == 6 and j == 0,
            "E7": n == 7 and j == 0,
        }[k]
        if not ok:
            raise BadParameters(f"bad parameters for {k}: n={n}, j={j}")

    def __str__(self) -> str:
        if self.kind == "A_exterior":
            return f"A_exterior({self.n},{self.j})"
        if self.kind in ("E6", "E7"):
            return self.kind
        return f"{self.kind}({self.n})"

    def sort_key(self) -> tuple:
        return (_KINDS.index(self.kind), self.n, self.j)


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


# the ranks of each type letter, least and most, as `minuscule_indices` lists them
_RANKS = {"A": (1, None), "B": (2, None), "C": (3, None), "D": (4, None), "E": (6, 7)}


def diagram_of_type(letter: str, n: int) -> DynkinDiagram:
    if letter not in _RANKS:
        raise BadParameters(f"unknown type letter {letter!r}")
    least, most = _RANKS[letter]
    if n < least or (most is not None and n > most):
        span = f"n >= {least}" if most is None else f"{least} <= n <= {most}"
        raise BadParameters(f"type {letter} needs {span}, got n={n}")
    if letter == "A":
        return _path_diagram(n)
    if letter in ("B", "C"):
        return _bc_diagram(n, letter)
    if letter == "D":
        return _d_diagram(n)
    return _e_diagram(n)


# -- poset constructors --------------------------------------------------------


def _chain(diagram: DynkinDiagram, colors_top_down: list[int]) -> ColoredPoset:
    n = len(colors_top_down)
    coloring = {i + 1: colors_top_down[i] for i in range(n)}
    covers = [(i + 1, i) for i in range(1, n)]  # element i+1 sits below element i
    return ColoredPoset(diagram, coloring, covers)


def _grid(n: int, m: int) -> ColoredPoset:
    """Type A grid for index m: rows 1..m, columns 1..n+1-m, cell (1,1) maximal
    with color m, cell colors m - r + c along diagonals."""
    cols = n + 1 - m
    ids = {}
    next_id = 1
    for r in range(1, m + 1):
        for c in range(1, cols + 1):
            ids[(r, c)] = next_id
            next_id += 1
    coloring = {ids[(r, c)]: m - r + c for (r, c) in ids}
    covers = []
    for (r, c), x in ids.items():
        if c + 1 <= cols:
            covers.append((ids[(r, c + 1)], x))
        if r + 1 <= m:
            covers.append((ids[(r + 1, c)], x))
    return ColoredPoset(_path_diagram(n), coloring, covers)


def _type_b(n: int) -> ColoredPoset:
    """Staircase with rows of lengths n, n-1, .., 1; row cells colored n, n-1, ..
    left to right; unique maximum colored n."""
    ids = {}
    next_id = 1
    for r in range(1, n + 1):
        for c in range(1, n + 2 - r):
            ids[(r, c)] = next_id
            next_id += 1
    coloring = {ids[(r, c)]: n + 1 - c for (r, c) in ids}
    covers = []
    for (r, c), x in ids.items():
        if (r, c + 1) in ids:
            covers.append((ids[(r, c + 1)], x))
        if c >= 2 and (r + 1, c - 1) in ids:
            covers.append((ids[(r + 1, c - 1)], x))
    return ColoredPoset(_bc_diagram(n, "B"), coloring, covers)


def _type_c(n: int) -> ColoredPoset:
    colors = list(range(1, n + 1)) + list(range(n - 1, 0, -1))
    return _chain(_bc_diagram(n, "C"), colors)


def _type_d_standard(n: int) -> ColoredPoset:
    """Chain 1..n-2, the incomparable pair {n-1, n}, then the chain back down."""
    diagram = _d_diagram(n)
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


def _type_d_spin(n: int) -> ColoredPoset:
    """Shifted staircase on cells (r, c), 1 <= r <= c <= n-1; the diagonal
    alternates between the fork colors n and n-1 starting from the maximal
    cell (1,1)."""
    ids = {}
    next_id = 1
    for r in range(1, n):
        for c in range(r, n):
            ids[(r, c)] = next_id
            next_id += 1

    def color(r: int, c: int) -> int:
        x = c - r
        if x == 0:
            return n if r % 2 == 1 else n - 1
        if x == 1:
            return n - 2
        return n - 1 - x

    coloring = {ids[rc]: color(*rc) for rc in ids}
    covers = []
    for (r, c), x in ids.items():
        if (r, c + 1) in ids:
            covers.append((ids[(r, c + 1)], x))
        if (r + 1, c) in ids:
            covers.append((ids[(r + 1, c)], x))
    return ColoredPoset(_d_diagram(n), coloring, covers)


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


def build(family: FamilyId) -> ColoredPoset:
    """The family's poset, colored by Kac numbers."""
    k, n, j = family.kind, family.n, family.j
    if k == "A_standard":
        return _chain(_path_diagram(n), list(range(1, n + 1)))
    if k == "A_exterior":
        return _grid(n, j)
    if k == "B":
        return _type_b(n)
    if k == "C":
        return _type_c(n)
    if k == "D_standard":
        return _type_d_standard(n)
    if k == "D_spin":
        return _type_d_spin(n)
    if k == "E6":
        return _from_table(_e_diagram(6), _E6_TABLE)
    if k == "E7":
        return _from_table(_e_diagram(7), _E7_TABLE)
    raise BadParameters(k)


def minuscule_indices(max_n: int) -> list[tuple[str, int, int]]:
    """All minuscule weight indices (letter, n, j) with rank at most max_n."""
    out: list[tuple[str, int, int]] = []
    for n in range(1, max_n + 1):
        out += [("A", n, j) for j in range(1, n + 1)]
    for n in range(2, max_n + 1):
        out.append(("B", n, n))
    for n in range(3, max_n + 1):
        out.append(("C", n, 1))
    for n in range(4, max_n + 1):
        out += [("D", n, 1), ("D", n, n - 1), ("D", n, n)]
    if max_n >= 6:
        out += [("E", 6, 1), ("E", 6, 5)]
    if max_n >= 7:
        out.append(("E", 7, 6))
    return out


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
    key = (letter, n, j)
    if key not in set(minuscule_indices(max(n, 7))):
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
    out: list[FamilyId] = []
    for n in range(1, max_n + 1):
        out.append(FamilyId("A_standard", n))
    for n in range(3, max_n + 1):
        out += [FamilyId("A_exterior", n, j) for j in range(2, n)]
    for n in range(2, max_n + 1):
        out.append(FamilyId("B", n))
    for n in range(3, max_n + 1):
        out.append(FamilyId("C", n))
    for n in range(4, max_n + 1):
        out.append(FamilyId("D_standard", n))
    for n in range(5, max_n + 1):
        out.append(FamilyId("D_spin", n))
    if max_n >= 6:
        out.append(FamilyId("E6", 6))
    if max_n >= 7:
        out.append(FamilyId("E7", 7))
    return out
