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

A diagram stores its colors and each color's nonzero off-diagonal pairings
(b, theta[a][b]) in canonical order, the edges: `from_pairings` takes them as
given, and `DynkinDiagram(colors, matrix)` reads a dense table in one pass per
row, scanning a bad table whole only to name its first violation, row-major:
first a cell that is not an exact int (a bool or float is refused, not
converted).  `to_json` writes the diagram document, and `from_json`, the one
reader of it, checks its shape before the constructor checks its cells.
Queries, equality, the hash (taken once), restriction, the Kac-numbered rows
and recognition cost O(n + edges); only `to_json` and `matrix` build a table.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Hashable, ItemsView, Iterable, KeysView, Mapping, NamedTuple, Optional, Sequence

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


class DynkinDiagram:
    """Immutable diagram: ordered colors and each color's nonzero off-diagonal
    pairings, in canonical order; equal exactly when colors and dense tables are."""

    __slots__ = ("colors", "_index", "_pairs", "_hash")

    def __init__(self, colors: Sequence[Color], matrix: Sequence[Sequence[int]]) -> None:
        colors = tuple(colors)
        # a non-int cell outside the square is left to the square check
        if not set(map(type, chain.from_iterable(matrix))) <= {int}:
            for a, row in zip(colors, matrix):
                for b, v in zip(colors, row):
                    if type(v) is not int:
                        raise DiagramError(f"theta[{a!r}][{b!r}] = {v!r} is not an integer")
        n = len(colors)
        if len(set(colors)) != n:
            raise DiagramError("duplicate colors")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise DiagramError("pairing table is not square over the color set")
        # one pass per row lists its nonzero entries, and only a bad table is
        # scanned whole, to name its first violation
        span = range(n)
        pairs = {
            a: {colors[j]: row[j] for j in compress(span, row) if j != i}
            for i, (a, row) in enumerate(zip(colors, matrix))
        }
        if any(row[i] != 2 for i, row in enumerate(matrix)) or not _valid(pairs):
            _raise_first_violation(colors, matrix)
        self._set(colors, pairs)

    @classmethod
    def from_pairings(
        cls, colors: Sequence[Color], pairings: Iterable[tuple[Color, Color, int]]
    ) -> "DynkinDiagram":
        """The diagram whose nonzero off-diagonal pairings are the triples
        (a, b, theta(a, b)) given, in any order, built in O(n + pairings)."""
        # bucketed by b, then read back in color order: each row sorted, no sort
        column: dict[Color, list] = {b: [] for b in colors}
        for a, b, v in pairings:
            column[b].append((a, v))
        pairs: dict[Color, dict[Color, int]] = {a: {} for a in colors}
        for b, entries in column.items():
            for a, v in entries:
                pairs[a][b] = v
        if len(pairs) != len(colors) or not _valid(pairs):
            raise DiagramError("duplicate colors, or a pairing that is not one side of an edge")
        diagram = cls.__new__(cls)
        diagram._set(colors, pairs)
        return diagram

    def _set(self, colors: Sequence[Color], pairs: dict[Color, dict[Color, int]]) -> None:
        object.__setattr__(self, "colors", tuple(colors))
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(colors)})
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynkinDiagram):
            return NotImplemented
        return (self.colors, self._pairs) == (other.colors, other._pairs)

    def __hash__(self) -> int:
        if self._hash is None:
            rows = tuple(tuple(row.items()) for row in self._pairs.values())
            object.__setattr__(self, "_hash", hash((self.colors, rows)))
        return self._hash

    # -- basic queries ----------------------------------------------------

    def index(self, a: Color) -> int:
        return self._index[a]

    def theta(self, a: Color, b: Color) -> int:
        return 2 if a == b else self._pairs[a].get(b, 0)

    def adjacent(self, a: Color, b: Color) -> bool:
        return b in self._pairs[a]

    def distant(self, a: Color, b: Color) -> bool:
        return a != b and b not in self._pairs[a]

    def neighbors(self, a: Color) -> KeysView[Color]:
        """The colors adjacent to a, in canonical order, as a live view."""
        return self._pairs[a].keys()

    def degree(self, a: Color) -> int:
        return len(self._pairs[a])

    def pairings(self, a: Color) -> ItemsView[Color, int]:
        """(b, theta(a, b)) for the colors b adjacent to a, in canonical order."""
        return self._pairs[a].items()

    def numbered_rows(self, numbering: Mapping[Color, int]) -> list[list[tuple[int, int]]]:
        """Row numbering[a] lists (numbering[b], theta(a, b)) as `pairings(a)`
        does, for a numbering of the colors onto 1..n; row 0 is empty."""
        rows: list[list[tuple[int, int]]] = [[] for _ in range(len(self.colors) + 1)]
        for a, row in self._pairs.items():
            rows[numbering[a]] = [(numbering[b], v) for b, v in row.items()]
        return rows

    def __len__(self) -> int:
        return len(self.colors)

    def __contains__(self, a: Color) -> bool:
        return a in self._index

    # -- structure ---------------------------------------------------------

    def components(self) -> list[tuple[Color, ...]]:
        """Connected components of the underlying simple graph, in color order."""
        seen: set[Color] = set()
        out: list[tuple[Color, ...]] = []
        for a in self.colors:
            if a not in seen:
                comp, stack = {a}, [a]
                while stack:
                    fresh = self._pairs[stack.pop()].keys() - comp
                    comp |= fresh
                    stack += fresh
                seen |= comp
                out.append(tuple(sorted(comp, key=self._index.__getitem__)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def restrict(self, colors: Iterable[Color]) -> "DynkinDiagram":
        """Sub-diagram induced on the given colors (kept in canonical order);
        the cost grows with the colors kept, not with the diagram."""
        index = self._index
        keep = sorted({c for c in colors if c in index}, key=index.__getitem__)
        kept = set(keep)
        return DynkinDiagram.from_pairings(
            keep, [(a, b, v) for a in keep for b, v in self._pairs[a].items() if b in kept]
        )

    # -- the dense table: a view for JSON output and the tests ----------------

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._rows()))

    def _rows(self) -> list[list[int]]:
        """The dense table as lists, row-major in canonical order."""
        n, index, rows = len(self.colors), self._index, []
        for i, row in enumerate(self._pairs.values()):
            rows.append([0] * n)
            rows[i][i] = 2
            for b, v in row.items():
                rows[i][index[b]] = v
        return rows

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"colors": [str(c) for c in self.colors], "theta": self._rows()}

    @staticmethod
    def from_json(data: object) -> "DynkinDiagram":
        """The diagram of a document's diagram object: a list of string colors
        and a theta list of lists, whose cells the constructor checks."""
        ok = isinstance(data, dict) and isinstance(data.get("colors"), list)
        theta = data.get("theta") if ok else None
        if not isinstance(theta, list) or not set(map(type, theta)) <= {list}:
            raise DiagramError("diagram must hold a colors list and a theta table of integers")
        if not set(map(type, data["colors"])) <= {str}:
            raise DiagramError("diagram colors must be strings")
        return DynkinDiagram(data["colors"], theta)

    def to_dot(self) -> str:
        """Graphviz source: undirected single edges, decorated directed pairs."""
        lines = ["digraph dynkin {", "  edge [dir=none];"]
        for a in self.colors:
            lines.append(f'  "{a}";')
        index, pairs = self._index, self._pairs
        for a, row in pairs.items():
            for b, tab in row.items():
                if index[b] <= index[a]:
                    continue
                tba = pairs[b][a]
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


def _valid(pairs: Mapping[Color, Mapping[Color, int]]) -> bool:
    """Every listed pairing is off the diagonal and negative, its mirror listed."""
    return all(a != b and v < 0 and a in pairs[b] for a, row in pairs.items() for b, v in row.items())


def is_simply_laced(diagram: DynkinDiagram) -> bool:
    """True iff every pairing lies in {-1, 0, 2}."""
    return all(v == -1 for row in diagram._pairs.values() for v in row.values())


def is_acyclic(diagram: DynkinDiagram) -> bool:
    """True iff the underlying simple graph has no cycle."""
    edges = sum(map(len, diagram._pairs.values())) // 2
    # a simple graph is a forest iff |E| = |V| - #components
    return edges == len(diagram.colors) - len(diagram.components())


class FiniteTypeId(NamedTuple):
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
    index, pairs = diagram._index, diagram._pairs
    doubles = [
        (a, b)
        for a, row in pairs.items()
        for b, v in row.items()
        if index[a] < index[b] and v * pairs[b][a] > 1
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
