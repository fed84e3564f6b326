"""
Dynkin diagrams as exact integer pairing data.

A diagram is a finite set of colors together with pairing integers
``theta[a][b]`` satisfying

    (i)   theta[a][a] == 2,
    (ii)  theta[a][b] <= 0 for a != b,
    (iii) theta[a][b] == 0 iff theta[b][a] == 0.

Two colors are *adjacent* when their pairing is negative and *distant* when
it is zero.  ``a`` is *k-adjacent to b* when ``theta[a][b] == -k``.  The
canonical total order on colors is their construction order; all outputs
follow it.

A diagram reads its table once, in one pass per row that lists the row's
nonzero off-diagonal entries: the edges.  Validation checks those lists
(each entry negative, each mirror nonzero, each diagonal entry 2) and scans
the whole table only to name the first violation of a bad one, in row-major
order.  Neighbours, components, acyclicity, simple lacing and finite-type
recognition read the edge lists, so they cost O(n + edges), not O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Hashable, Iterable, Mapping, Optional, Sequence

Color = Hashable

__all__ = [
    "Color",
    "DynkinDiagram",
    "FiniteTypeId",
    "DiagramError",
    "DiagonalNotTwo",
    "PositiveOffDiagonal",
    "AsymmetricZero",
    "NotConnected",
    "validate",
    "is_simply_laced",
    "is_acyclic",
    "recognize_finite_type",
]


class DiagramError(ValueError):
    """A pairing table that is not a generalized Cartan matrix."""


class DiagonalNotTwo(DiagramError):
    pass


class PositiveOffDiagonal(DiagramError):
    pass


class AsymmetricZero(DiagramError):
    pass


class NotConnected(ValueError):
    """An operation that needs a connected diagram got a disconnected one."""


@dataclass(frozen=True)
class DynkinDiagram:
    """Immutable diagram: ordered colors plus the full pairing matrix."""

    colors: tuple[Color, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.colors)
        if len(set(self.colors)) != n:
            raise DiagramError("duplicate colors")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise DiagramError("pairing table is not square over the color set")
        # one pass per row lists the nonzero entries; the table is valid iff each
        # diagonal entry is 2 and every other listed entry is negative with a
        # nonzero mirror, and only a bad table is scanned whole
        m, span = self.matrix, range(n)
        rows = [list(compress(span, row)) for row in m]
        for i, row in enumerate(rows):
            if m[i][i] != 2:
                _raise_first_violation(self.colors, m)
            row.remove(i)
            for j in row:
                if m[i][j] > 0 or not m[j][i]:
                    _raise_first_violation(self.colors, m)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(self.colors)})
        # a nonzero off-diagonal entry is an edge
        object.__setattr__(self, "_edges", tuple(map(tuple, rows)))
        object.__setattr__(self, "_neighbors", {
            a: tuple(self.colors[j] for j in rows[i]) for i, a in enumerate(self.colors)
        })

    # -- basic queries ----------------------------------------------------

    def index(self, a: Color) -> int:
        return self._index[a]

    def theta(self, a: Color, b: Color) -> int:
        return self.matrix[self._index[a]][self._index[b]]

    def adjacent(self, a: Color, b: Color) -> bool:
        return a != b and self.theta(a, b) < 0

    def distant(self, a: Color, b: Color) -> bool:
        return a != b and self.theta(a, b) == 0

    def neighbors(self, a: Color) -> tuple[Color, ...]:
        """The colors adjacent to a, in canonical order."""
        return self._neighbors[a]

    def degree(self, a: Color) -> int:
        return len(self._neighbors[a])

    def __len__(self) -> int:
        return len(self.colors)

    def __contains__(self, a: Color) -> bool:
        return a in self._index

    # -- structure ---------------------------------------------------------

    def components(self) -> list[tuple[Color, ...]]:
        """Connected components of the underlying simple graph, in color order."""
        seen: set[int] = set()
        out: list[tuple[Color, ...]] = []
        for i in range(len(self.colors)):
            if i in seen:
                continue
            comp = {i}
            stack = [i]
            while stack:
                for j in self._edges[stack.pop()]:
                    if j not in comp:
                        comp.add(j)
                        stack.append(j)
            seen |= comp
            out.append(tuple(self.colors[j] for j in sorted(comp)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def restrict(self, colors: Iterable[Color]) -> "DynkinDiagram":
        """Sub-diagram induced on the given colors (kept in canonical order);
        the cost grows with the colors kept, not with the diagram."""
        index = self._index
        keep = sorted({c for c in colors if c in index}, key=index.__getitem__)
        at = {index[c]: k for k, c in enumerate(keep)}
        rows = [[0] * len(keep) for _ in keep]
        for i, k in at.items():
            rows[k][k] = 2
            for j in self._edges[i]:
                if j in at:
                    rows[k][at[j]] = self.matrix[i][j]
        return DynkinDiagram(tuple(keep), tuple(map(tuple, rows)))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "colors": [str(c) for c in self.colors],
            "theta": [list(row) for row in self.matrix],
        }

    @staticmethod
    def from_json(data: Mapping) -> "DynkinDiagram":
        """The diagram of a document whose colors are strings and whose theta
        rows are lists of ints, as `ColoredPoset.from_json` checks them: the
        rows are read once, here."""
        return DynkinDiagram(tuple(data["colors"]), tuple(map(tuple, data["theta"])))

    def to_dot(self) -> str:
        """Graphviz source: undirected single edges, decorated directed pairs."""
        lines = ["digraph dynkin {", "  edge [dir=none];"]
        for a in self.colors:
            lines.append(f'  "{a}";')
        for i, a in enumerate(self.colors):
            for j, b in enumerate(self.colors):
                if j <= i:
                    continue
                tab, tba = self.matrix[i][j], self.matrix[j][i]
                if tab == 0:
                    continue
                if tab * tba == 1:
                    lines.append(f'  "{a}" -> "{b}";')
                else:
                    lines.append(f'  "{a}" -> "{b}" [dir=forward, label="{-tab}"];')
                    lines.append(f'  "{b}" -> "{a}" [dir=forward, label="{-tba}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _raise_first_violation(colors: Sequence[Color], m: Sequence[Sequence[int]]) -> None:
    """Raise the first violated condition in row-major order, each diagonal
    entry checked before the rest of its row."""
    for i, a in enumerate(colors):
        if m[i][i] != 2:
            raise DiagonalNotTwo(f"theta[{a!r}][{a!r}] = {m[i][i]}, expected 2")
        for j, b in enumerate(colors):
            if i == j:
                continue
            if m[i][j] > 0:
                raise PositiveOffDiagonal(f"theta[{a!r}][{b!r}] = {m[i][j]} > 0")
            if (m[i][j] == 0) != (m[j][i] == 0):
                raise AsymmetricZero(
                    f"theta[{a!r}][{b!r}] = {m[i][j]} but theta[{b!r}][{a!r}] = {m[j][i]}"
                )


def validate(colors: Sequence[Color], table: Sequence[Sequence[int]]) -> DynkinDiagram:
    """Build a diagram from a raw pairing table, naming any violated condition.
    Every entry must be an exact int: floats, bools and strings are refused, not
    converted, the first one in row-major order named."""
    colors, m = tuple(colors), tuple(map(tuple, table))
    for a, row in zip(colors, m):
        for b, v in zip(colors, row):
            if type(v) is not int:
                raise DiagramError(f"theta[{a!r}][{b!r}] = {v!r} is not an integer")
    return DynkinDiagram(colors, m)


def is_simply_laced(diagram: DynkinDiagram) -> bool:
    """True iff every pairing lies in {-1, 0, 2}."""
    m = diagram.matrix
    return all(m[i][j] == -1 for i, row in enumerate(diagram._edges) for j in row)


def is_acyclic(diagram: DynkinDiagram) -> bool:
    """True iff the underlying simple graph has no cycle."""
    edges = sum(map(len, diagram._edges)) // 2
    # a simple graph is a forest iff |E| = |V| - #components
    return edges == len(diagram.colors) - len(diagram.components())


@dataclass(frozen=True)
class FiniteTypeId:
    """A finite Lie type with its node numbering (colors -> 1..rank)."""

    letter: str
    rank: int
    numbering: tuple[tuple[Color, int], ...]

    @property
    def numbering_map(self) -> dict[Color, int]:
        return dict(self.numbering)

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


def _path_order(diagram: DynkinDiagram) -> Optional[list[Color]]:
    """Colors of a path graph listed end to end, or None if not a path."""
    degs = {a: diagram.degree(a) for a in diagram.colors}
    if len(diagram.colors) == 1:
        return list(diagram.colors)
    ends = [a for a in diagram.colors if degs[a] == 1]
    if len(ends) != 2 or any(d > 2 for d in degs.values()):
        return None
    order = [ends[0]]
    while len(order) < len(diagram.colors):
        # degrees are at most 2, so only the previous color can be seen already
        nxt = [b for b in diagram.neighbors(order[-1]) if b not in order[-2:]]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
    if diagram.degree(order[-1]) != 1:
        return None
    return order


def _canonical(colors: Sequence[Color], diagram: DynkinDiagram) -> list[Color]:
    """Sort colors by canonical (construction) order."""
    return sorted(colors, key=diagram.index)


def recognize_finite_type(diagram: DynkinDiagram) -> Optional[FiniteTypeId]:
    """
    Match a connected diagram against the A/B/C/D/E6/E7 templates.

    Returns the type with a numbering following the Kac convention: the short
    node of B_n and the long node of C_n are numbered n, the D_n fork is
    {n-1, n} on node n-2, E6 is the path 1-2-3-4-5 with 6 on 3, and E7 is the
    path 1-2-3-4-5-6 with 7 on 3.  Ties (diagram automorphisms) are broken by
    canonical color order, so the numbering is deterministic.
    """
    if not diagram.is_connected():
        raise NotConnected("finite type recognition needs a connected diagram")
    n = len(diagram.colors)
    # No test for a tree is needed: every template match below returns None on
    # a connected diagram with a cycle.  `_path_order` needs two ends and no
    # degree above 2, and a connected graph of degree at most 2 with a cycle
    # is the bare cycle, which has no end.  With one branch node, of degree 3,
    # and every other node of degree at most 2, the cycle passes through the
    # branch node, so the arm walked into it comes back there and meets two
    # ways on.

    # both entries of an edge are negative integers, so an edge whose product
    # is 1 is -1 both ways: every edge but those listed here is single
    m, colors = diagram.matrix, diagram.colors
    doubles = [
        (colors[i], colors[j])
        for i, row in enumerate(diagram._edges)
        for j in row
        if i < j and m[i][j] * m[j][i] > 1
    ]
    if len(doubles) > 1:
        return None

    if len(doubles) == 1:
        a, b = doubles[0]
        pair = {diagram.theta(a, b), diagram.theta(b, a)}
        if pair != {-1, -2}:
            return None
        path = _path_order(diagram)
        if path is None:
            return None
        if frozenset((path[-1], path[-2])) == frozenset((a, b)):
            path.reverse()
        if frozenset((path[0], path[1])) != frozenset((a, b)):
            return None  # double edge not at an end
        end, inner = path[0], path[1]
        # theta[short][long] = -1 marks the B end, theta[long][short] = -2 the C end;
        # the two readings coincide at rank 2, reported canonically as B2
        if diagram.theta(end, inner) == -1 or n == 2:
            letter = "B"
            if diagram.theta(end, inner) != -1:
                path.reverse()
                end, inner = path[0], path[1]
        else:
            letter = "C"
        numbering = tuple((c, n - i) for i, c in enumerate(path))
        return FiniteTypeId(letter, n, numbering)

    # simply laced from here on
    path = _path_order(diagram)
    if path is not None:
        if diagram.index(path[0]) > diagram.index(path[-1]):
            path.reverse()
        return FiniteTypeId("A", n, tuple((c, i + 1) for i, c in enumerate(path)))

    branch = [a for a in diagram.colors if diagram.degree(a) >= 3]
    if len(branch) != 1 or diagram.degree(branch[0]) != 3:
        return None
    center = branch[0]
    arms: list[list[Color]] = []
    for start in _canonical(diagram.neighbors(center), diagram):
        arm = [start]
        prev = center
        while True:
            nxt = [c for c in diagram.neighbors(arm[-1]) if c != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None
            prev = arm[-1]
            arm.append(nxt[0])
        arms.append(arm)
    lengths = sorted(len(a) for a in arms)

    if lengths[:2] == [1, 1]:
        # D_n: long arm numbered 1..n-3 outside in, center n-2, leaves n-1 and n
        arms.sort(key=len)
        if len(arms[2]) == 1:
            # D4: all three arms are leaves; number them canonically
            leaves3 = _canonical([arms[0][0], arms[1][0], arms[2][0]], diagram)
            numbering = ((leaves3[0], 1), (center, 2), (leaves3[1], 3), (leaves3[2], 4))
            return FiniteTypeId("D", 4, numbering)
        leaves = _canonical([arms[0][0], arms[1][0]], diagram)
        long_arm = arms[2]
        pairs = [(c, len(long_arm) - i) for i, c in enumerate(long_arm)]
        pairs += [(center, n - 2), (leaves[0], n - 1), (leaves[1], n)]
        return FiniteTypeId("D", n, tuple(pairs))

    if lengths == [1, 2, 2] and n == 6:
        arms.sort(key=len)
        short_leaf = arms[0][0]
        two_arms = sorted(arms[1:], key=lambda arm: diagram.index(arm[-1]))
        numbering = (
            (two_arms[0][1], 1),
            (two_arms[0][0], 2),
            (center, 3),
            (two_arms[1][0], 4),
            (two_arms[1][1], 5),
            (short_leaf, 6),
        )
        return FiniteTypeId("E", 6, numbering)

    if lengths == [1, 2, 3] and n == 7:
        arms.sort(key=len)
        short_leaf, two_arm, three_arm = arms[0][0], arms[1], arms[2]
        numbering = (
            (two_arm[1], 1),
            (two_arm[0], 2),
            (center, 3),
            (three_arm[0], 4),
            (three_arm[1], 5),
            (three_arm[2], 6),
            (short_leaf, 7),
        )
        return FiniteTypeId("E", 7, numbering)

    return None
