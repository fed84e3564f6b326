"""
Finite colored posets stored by their Hasse covers, ordered as bitmasks.

Elements are small integer ids.  A cover ``(x, y)`` means x is covered by y
(x below y).  The coloring maps elements onto the colors of an attached
Dynkin diagram and is surjective.

Element x sits at position ``position[x]``, its rank among the ids, and a set
of elements is an int whose bit i stands for ``elements[i]``.  One topological
pass up from the minimal elements checks the covers for cycles and closes
every element's down-mask (the elements strictly below it); the up-masks
close on the way back, and a cover is transitively redundant exactly when its
top lies in the up-mask of another cover of its bottom.  The two passes keep
each element's upper and lower covers as masks, and each color class is one
mask too, so order and color queries are bit operations: readers inside the
package count and walk masks.  The public queries answer with ids, built from
the masks when called.  `induced_covers` gives the covers of the order
induced on any subset: above each kept x, the minimal elements of
``up(x) & keep``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional

from .dynkin import Color, DynkinDiagram

__all__ = [
    "ColoredPoset",
    "TopTree",
    "PosetError",
    "bits",
    "order_dual",
    "top_tree",
    "colored_isomorphism",
    "component_masks",
]


class PosetError(ValueError):
    pass


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ColoredPoset:
    """Immutable finite poset with Hasse covers and a coloring into a diagram.

    Beside the ids, it keeps the order as masks over positions: ``up_masks[i]``
    and ``down_masks[i]`` are the elements strictly above and strictly below
    ``elements[i]``, ``cover_masks[i]`` and ``lower_cover_masks[i]`` the
    elements covering it and covered by it, and ``class_masks[a]`` is the
    color class of a."""

    def __init__(
        self,
        diagram: DynkinDiagram,
        coloring: Mapping[int, Color],
        covers: Iterable[tuple[int, int]],
    ) -> None:
        self.diagram = diagram
        self.elements: tuple[int, ...] = tuple(sorted(coloring))
        self.coloring: dict[int, Color] = {x: coloring[x] for x in self.elements}
        self.covers: frozenset[tuple[int, int]] = frozenset(map(tuple, covers))
        position = self.position = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        ups: list[list[int]] = [[] for _ in range(n)]
        downs: list[list[int]] = [[] for _ in range(n)]
        for x, y in self.covers:
            if x not in position or y not in position:
                raise PosetError(f"cover ({x},{y}) uses an unknown element")
            ups[position[x]].append(position[y])
            downs[position[y]].append(position[x])
        classes: dict[Color, int] = {}
        for i, x in enumerate(self.elements):
            c = self.coloring[x]
            classes[c] = classes.get(c, 0) | 1 << i
        for c, m in classes.items():
            # classes are listed by their first element, so the first bad class
            # holds the least element with a bad color
            if c not in diagram:
                x = self.elements[(m & -m).bit_length() - 1]
                raise PosetError(f"element {x} has color {c!r} outside the diagram")
        missing = set(diagram.colors) - classes.keys()
        if missing:
            raise PosetError(f"coloring is not surjective; missing {sorted(map(str, missing))}")
        self.class_masks = classes

        # Kahn's algorithm: place an element once all its lower covers are
        # placed; its down-mask closes in the same pass, its up-mask on the way back
        waiting = [len(row) for row in downs]
        order = [i for i in range(n) if not waiting[i]]
        below = [0] * n
        lower = [0] * n
        for i in order:  # order grows as elements are placed
            reach = bottoms = 0
            for k in downs[i]:
                reach |= below[k]
                bottoms |= 1 << k
            below[i] = reach | bottoms
            lower[i] = bottoms
            for j in ups[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    order.append(j)
        if len(order) < n:
            raise PosetError("covers contain a cycle")
        above = [0] * n
        cover = [0] * n
        redundant = False
        for i in reversed(order):
            reach = tops = 0
            for j in ups[i]:
                reach |= above[j]
                tops |= 1 << j
            # Hasse property: no cover may be implied by a longer path
            redundant = redundant or bool(reach & tops)
            above[i] = reach | tops
            cover[i] = tops
        self.up_masks, self.down_masks = above, below
        self.cover_masks, self.lower_cover_masks = cover, lower
        if redundant:
            for x, y in self.covers:
                if any(above[k] >> position[y] & 1 for k in bits(cover[position[x]])):
                    raise PosetError(f"cover ({x},{y}) is transitively redundant")

    # -- order primitives ---------------------------------------------------

    def color(self, x: int) -> Color:
        return self.coloring[x]

    def members(self, mask: int) -> tuple[int, ...]:
        """The elements a mask stands for, in id order."""
        ids = self.elements
        return tuple(ids[i] for i in bits(mask))

    def lt(self, x: int, y: int) -> bool:
        return self.up_masks[self.position[x]] >> self.position[y] & 1 == 1

    def leq(self, x: int, y: int) -> bool:
        return x == y or self.lt(x, y)

    def comparable(self, x: int, y: int) -> bool:
        return x == y or self.lt(x, y) or self.lt(y, x)

    def up_set(self, x: int) -> frozenset[int]:
        """The principal filter {y : y >= x}."""
        i = self.position[x]
        return frozenset(self.members(self.up_masks[i] | 1 << i))

    def open_interval(self, x: int, y: int) -> frozenset[int]:
        return frozenset(
            self.members(self.up_masks[self.position[x]] & self.down_masks[self.position[y]])
        )

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(x for i, x in enumerate(self.elements) if not self.cover_masks[i])

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(x for i, x in enumerate(self.elements) if not self.down_masks[i])

    def color_class(self, a: Color) -> tuple[int, ...]:
        """The elements of color a in id order; () for a color not in the diagram."""
        return self.members(self.class_masks.get(a, 0))

    def class_chain(self, a: Color, within: int = -1) -> tuple[int, ...]:
        """The color class of a, or its part in the mask `within`, bottom
        first: its elements by the number of elements below them.  Under EC
        the class is a chain, in this order."""
        down = self.down_masks
        bottom_first = sorted(bits(self.class_masks[a] & within), key=lambda i: down[i].bit_count())
        return tuple(self.elements[i] for i in bottom_first)

    def induced_covers(self, keep: Iterable[int]) -> list[tuple[int, int]]:
        """Covers of the order induced on a subset: pairs x < y in it with no
        element of it strictly between, sorted."""
        position, ids = self.position, self.elements
        kept = sorted(set(keep))
        mask = 0
        for x in kept:
            mask |= 1 << position[x]
        out = []
        for x in kept:
            above = self.up_masks[position[x]] & mask
            out += [(x, ids[j]) for j in bits(above) if not self.down_masks[j] & above]
        return out

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColoredPoset)
            and self.diagram == other.diagram
            and self.coloring == other.coloring
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return hash((self.diagram, tuple(sorted(self.coloring.items(), key=lambda kv: kv[0])), self.covers))

    def __repr__(self) -> str:
        return f"ColoredPoset({len(self.elements)} elements, {len(self.diagram)} colors)"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": 1,
            "diagram": self.diagram.to_json(),
            "elements": [{"id": x, "color": str(self.coloring[x])} for x in self.elements],
            "covers": sorted([x, y] for x, y in self.covers),
        }

    @staticmethod
    def from_json(data: Mapping) -> "ColoredPoset":
        version = data.get("version")
        if type(version) is not int or version != 1:
            raise PosetError(f"unsupported schema version {version!r}")
        missing = [key for key in ("diagram", "elements", "covers") if key not in data]
        if missing:
            raise PosetError(f"missing keys {missing}")
        diagram = DynkinDiagram.from_json(data["diagram"])
        elements = data["elements"]
        if not isinstance(elements, list) or not all(
            isinstance(e, dict) and type(e.get("id")) is int and type(e.get("color")) is str
            for e in elements
        ):
            raise PosetError("elements must be a list of {id, color} objects with string colors")
        coloring = {e["id"]: e["color"] for e in elements}
        if len(coloring) != len(elements):
            raise PosetError("duplicate element ids")
        covers = data["covers"]
        # integers by exact type: JSON true and false decode to bool, a subclass of int
        if not (
            isinstance(covers, list)
            and set(map(type, covers)) <= {list}
            and set(map(len, covers)) <= {2}
            and set(map(type, chain.from_iterable(covers))) <= {int}
        ):
            raise PosetError("covers must be a list of integer pairs")
        return ColoredPoset(diagram, coloring, covers)

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
        for x in self.elements:
            lines.append(f'  {x} [label="{self.coloring[x]}"];')
        for x, y in sorted(self.covers):
            lines.append(f"  {x} -> {y};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class TopTree:
    """The maximal element of each color, with the covers they induce."""

    def __init__(self, poset: ColoredPoset, elements: tuple[int, ...]):
        self.poset = poset
        self.elements = elements
        self.covers = frozenset(poset.induced_covers(elements))

    def splitting_element(self) -> Optional[int]:
        """The unique top-tree element covering two others in the tree, if any."""
        down_deg = {x: 0 for x in self.elements}
        for _, y in self.covers:
            down_deg[y] += 1
        split = [y for y in self.elements if down_deg[y] >= 2]
        if len(split) == 1 and down_deg[split[0]] == 2:
            return split[0]
        return None

    def shape(self) -> Optional[tuple[int, int, int]]:
        """The (i, j, k) of a Y-shaped tree with k >= j, or None: a chain of i
        elements from the splitting element s up, and two chains of j and k
        elements hanging from s."""
        s = self.splitting_element()
        above = dict(self.covers)
        if s is None or len(above) < len(self.covers):
            return None  # no splitting element, or an element covered twice
        # s is the only element covering two others, so no walk down branches
        below = {y: x for x, y in self.covers if y != s}

        def walk(x: int, step: dict[int, int]) -> int:
            length = 1
            while x in step:
                x, length = step[x], length + 1
            return length

        i = walk(s, above)
        j, k = sorted(walk(x, below) for x, y in self.covers if y == s)
        return (i, j, k) if i + j + k == len(self.elements) else None


def order_dual(poset: ColoredPoset) -> ColoredPoset:
    """Reverse all covers, keeping the coloring."""
    return ColoredPoset(
        poset.diagram, poset.coloring, [(y, x) for x, y in poset.covers]
    )


def top_tree(poset: ColoredPoset) -> TopTree:
    """
    The set of maximal elements of each color.

    Each color class must have a unique maximal element (automatic when
    elements of equal colors are comparable).
    """
    picks = []
    for a in poset.diagram.colors:
        cls = poset.class_masks[a]
        tops = [i for i in bits(cls) if not poset.up_masks[i] & cls]
        if len(tops) != 1:
            raise PosetError(f"color {a!r} has {len(tops)} maximal elements")
        picks.append(poset.elements[tops[0]])
    return TopTree(poset, tuple(sorted(picks)))


def first_linear_extension(poset: ColoredPoset, within: Optional[Iterable[int]] = None) -> tuple[int, ...]:
    """Deterministic linear extension (lowest available id first), optionally of
    a convex subset given as an element set.

    One pass of Kahn's algorithm over the covers between members, with the
    available members on a heap: a member becomes available once its lower
    covers among the members are placed."""
    members = poset.elements if within is None else tuple(within)
    keep = 0
    for x in members:
        keep |= 1 << poset.position[x]
    waiting = {i: (poset.lower_cover_masks[i] & keep).bit_count() for i in bits(keep)}
    ready = [i for i, count in waiting.items() if not count]
    out: list[int] = []
    while ready:
        i = heappop(ready)
        out.append(poset.elements[i])
        for j in bits(poset.cover_masks[i] & keep):
            waiting[j] -= 1
            if not waiting[j]:
                heappush(ready, j)
    if len(out) < len(members):
        raise PosetError("no linear extension; covers are cyclic")
    return tuple(out)


def colored_isomorphism(
    p1: ColoredPoset, p2: ColoredPoset
) -> Optional[tuple[dict[int, int], dict[Color, Color]]]:
    """
    A pair (pi, gamma) with pi an order isomorphism, gamma a pairing-preserving
    diagram bijection, and color(pi(x)) = gamma(color(x)); None if there is none.

    One backtracking search places p1's positions breadth first along covers,
    each component from its least, so all but the first of each have a placed
    cover neighbour.  A position takes a free one of p2 with equal up, down,
    cover and lower-cover counts whose placed upper and lower covers are the
    images of its own; gamma is fixed as colors are met, a new pair's placed
    neighbours mapping exactly onto each other with equal pairings.  A full pi
    maps covers onto covers both ways, an order isomorphism; gamma meets every
    color, is one-to-one into a diagram of equal size, and keeps every pairing.
    """
    n = len(p1)
    if n != len(p2) or len(p1.diagram) != len(p2.diagram):
        return None
    key1, key2 = (
        [(u.bit_count(), d.bit_count(), c.bit_count(), lo.bit_count())
         for u, d, c, lo in zip(p.up_masks, p.down_masks, p.cover_masks, p.lower_cover_masks)]
        for p in (p1, p2)
    )
    if sorted(key1) != sorted(key2):
        return None
    bucket: dict[tuple[int, ...], int] = {}
    for j, key in enumerate(key2):
        bucket[key] = bucket.get(key, 0) | 1 << j
    covers = ((p1.cover_masks, p2.cover_masks), (p1.lower_cover_masks, p2.lower_cover_masks))
    order, rest = [], (1 << n) - 1
    for head in range(n):
        if head == len(order):  # a new component, from its least position
            order.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        reached = (p1.cover_masks[order[head]] | p1.lower_cover_masks[order[head]]) & rest
        order += bits(reached)
        rest ^= reached
    d1, d2 = p1.diagram, p2.diagram
    col1, col2 = [p1.coloring[x] for x in p1.elements], [p2.coloring[y] for y in p2.elements]
    pi, gamma, back, placed, used = [-1] * n, {}, {}, 0, 0

    def fits(i: int, j: int) -> bool:
        for m1, m2 in covers:
            if sum(1 << pi[k] for k in bits(m1[i] & placed)) != m2[j] & used:
                return False
        a, b = col1[i], col2[j]
        if a in gamma or b in back:
            return a in gamma and gamma[a] == b
        near = [c for c in d1.neighbors(a) if c in gamma]
        return {gamma[c] for c in near} == {e for e in d2.neighbors(b) if e in back} and all(
            d1.theta(a, c) == d2.theta(b, gamma[c]) and d1.theta(c, a) == d2.theta(gamma[c], b)
            for c in near
        )

    left, fixed, depth = [iter(())] * n, [False] * n, 0
    while depth < n:
        i = order[depth]
        if pi[i] < 0:  # a fresh depth: its candidates, lowest first
            left[depth] = bits(bucket.get(key1[i], 0) & ~used)
        else:  # back from a dead end: undo this depth's placement
            placed, used, pi[i] = placed ^ 1 << i, used ^ 1 << pi[i], -1
            if fixed[depth]:
                del back[gamma.pop(col1[i])]
        j = next((j for j in left[depth] if fits(i, j)), -1)
        if j < 0:
            if not depth:
                return None
            depth -= 1
            continue
        fixed[depth] = col1[i] not in gamma
        gamma[col1[i]], back[col2[j]] = col2[j], col1[i]
        pi[i], placed, used = j, placed | 1 << i, used | 1 << j
        depth += 1
    return dict(zip(p1.elements, (p2.elements[j] for j in pi))), {a: gamma[a] for a in d1.colors}


def component_masks(poset: ColoredPoset) -> list[int]:
    """The connected components as position masks, in the order of their
    least elements.

    A poset with one maximal element is connected, every element lying below
    it, and is its own only component.  Otherwise each component is flooded
    over the upper and lower cover masks from the least position left."""
    everything = (1 << len(poset)) - 1
    if sum(not m for m in poset.cover_masks) == 1:
        return [everything]
    links = [u | d for u, d in zip(poset.cover_masks, poset.lower_cover_masks)]
    comps, rest = [], everything
    while rest:
        comp = reached = rest & -rest
        while reached:
            step = 0
            for i in bits(reached):
                step |= links[i]
            reached = step & ~comp
            comp |= reached
        comps.append(comp)
        rest &= ~comp
    return comps
