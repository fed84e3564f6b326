"""
Coloring axioms and named properties of colored posets, with witnesses.

Comparability properties:

* EC   — elements with equal colors are comparable.
* NA   — neighbors (elements related by a cover) have adjacent colors.
* AC   — elements with adjacent colors are comparable.

Census properties (all sums weighted by the negated pairing integers):

* ICE2   — the open interval between consecutive same-colored elements has
           census exactly 2.
* UCB(k) — above each maximal element of a color class, the frontier census
           is at most k (UCB1 written "UCB1").
* LCB(k) — the order dual bound.

A finite poset satisfying EC, NA, AC, ICE2, UCB1 is *d-complete*; adding
LCB1 makes it *minuscule*.  The dominant-minuscule-heap axioms S1-S4 describe
the same finite posets through different quantifiers and are checked verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from .dynkin import Color
from .poset import ColoredPoset, bits, top_tree

__all__ = [
    "AxiomReport",
    "Witness",
    "UnknownProperty",
    "NotDComplete",
    "NotConnectedPoset",
    "check",
    "is_d_complete",
    "is_minuscule",
    "is_dominant_minuscule_heap",
    "is_slant_irreducible",
    "D_COMPLETE_PROPERTIES",
]


class UnknownProperty(ValueError):
    pass


class NotDComplete(ValueError):
    pass


class NotConnectedPoset(ValueError):
    pass


@dataclass(frozen=True)
class Witness:
    """One independently recheckable violation: the elements involved plus the
    offending quantity (census value, count, ...) when there is one."""

    elements: tuple[int, ...]
    value: int | None = None
    note: str = ""

    def to_json(self) -> dict:
        out: dict = {"elements": list(self.elements)}
        if self.value is not None:
            out["value"] = self.value
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class AxiomReport:
    property: str
    holds: bool
    witnesses: tuple[Witness, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


D_COMPLETE_PROPERTIES = ("EC", "NA", "AC", "ICE2", "UCB1")


def _adjacent_masks(p: ColoredPoset) -> dict[Color, int]:
    """Per color a, the elements whose colors are adjacent to a."""
    classes = p.class_masks
    out = {}
    for a in p.diagram.colors:
        m = 0
        for b in p.diagram.neighbors(a):
            m |= classes[b]
        out[a] = m
    return out


def _census_terms(p: ColoredPoset) -> dict[Color, list[tuple[int, int]]]:
    """Per color a, the (class mask of b, -theta(b, a)) pairs over b = a and
    the colors adjacent to a: a set's census for a weighs each of its
    elements by its color, and distant colors weigh nothing."""
    d, classes = p.diagram, p.class_masks
    return {
        a: [(classes[a], -2)] + [(classes[b], -d.theta(b, a)) for b in d.neighbors(a)]
        for a in d.colors
    }


def _census(terms: list[tuple[int, int]], mask: int) -> int:
    return sum(w * (mask & m).bit_count() for m, w in terms)


def _later_incomparable(p: ColoredPoset, i: int, candidates: int) -> int:
    """The candidates at positions after i that are incomparable to element i."""
    return candidates >> (i + 1) << (i + 1) & ~(p.up_masks[i] | p.down_masks[i])


def _check_ec(p: ColoredPoset) -> list[Witness]:
    bad = []
    els = p.elements
    for a in p.diagram.colors:
        cls = p.class_masks[a]
        for i in bits(cls):
            for j in bits(_later_incomparable(p, i, cls)):
                bad.append(Witness((els[i], els[j]), note=f"equal color {a!r}, incomparable"))
    return bad


def _covers_in_order(p: ColoredPoset) -> Iterator[tuple[int, int]]:
    """The covers (x, y) sorted, read off the sorted cover lists."""
    for x in p.elements:
        for y in p.covers_of(x):
            yield x, y


def _check_na(p: ColoredPoset) -> list[Witness]:
    adjacent, position = _adjacent_masks(p), p.position
    bad = []
    for x, y in _covers_in_order(p):
        a, b = p.coloring[x], p.coloring[y]
        if not adjacent[a] >> position[y] & 1:
            bad.append(Witness((x, y), note=f"cover with non-adjacent colors {a!r},{b!r}"))
    return bad


def _check_ac(p: ColoredPoset) -> list[Witness]:
    adjacent, els = _adjacent_masks(p), p.elements
    bad = []
    for i, x in enumerate(els):
        for j in bits(_later_incomparable(p, i, adjacent[p.coloring[x]])):
            bad.append(Witness((x, els[j]), note="adjacent colors, incomparable"))
    return bad


def _consecutive(p: ColoredPoset, a: Color) -> Iterator[tuple[int, int]]:
    """Positions i, j of the pairs x < y of color a with no color-a element
    strictly between, sorted: above each x, the minimal elements of its class."""
    cls = p.class_masks[a]
    for i in bits(cls):
        above = p.up_masks[i] & cls
        for j in bits(above):
            if not p.down_masks[j] & above:
                yield i, j


def _check_ice2(p: ColoredPoset) -> list[Witness]:
    terms, els = _census_terms(p), p.elements
    bad = []
    for a in p.diagram.colors:
        for i, j in _consecutive(p, a):
            census = _census(terms[a], p.up_masks[i] & p.down_masks[j])
            if census != 2:
                bad.append(
                    Witness((els[i], els[j]), value=census, note=f"interval census for {a!r}")
                )
    return bad


def _frontier_censuses(p: ColoredPoset, upper: bool) -> list[tuple[Color, int, int]]:
    """(color, extreme element, census) triples over maximal/minimal elements
    of each color class.  Nothing of an extreme element's own color lies
    beyond it, so its frontier census is the census of all it reaches."""
    terms = _census_terms(p)
    reach = p.up_masks if upper else p.down_masks
    out = []
    for a in p.diagram.colors:
        cls = p.class_masks[a]
        for i in bits(cls):
            if not reach[i] & cls:
                out.append((a, p.elements[i], _census(terms[a], reach[i])))
    return out


def _check_frontier(p: ColoredPoset, k: int, upper: bool) -> list[Witness]:
    """UCBk (upper) or LCBk: every frontier census is at most k."""
    side = "upper" if upper else "lower"
    return [
        Witness((x,), value=census, note=f"{side} frontier census for {a!r}")
        for a, x, census in _frontier_censuses(p, upper)
        if census > k
    ]


def _check_s1(p: ColoredPoset) -> list[Witness]:
    adjacent, els, position = _adjacent_masks(p), p.elements, p.position
    near = {a: m | p.class_masks[a] for a, m in adjacent.items()}
    bad = []
    for x, y in _covers_in_order(p):
        if not near[p.coloring[x]] >> position[y] & 1:
            bad.append(Witness((x, y), note="neighbors with distant colors"))
    for i, x in enumerate(els):
        for j in bits(_later_incomparable(p, i, near[p.coloring[x]])):
            bad.append(Witness((x, els[j]), note="incomparable, colors not distant"))
    return bad


def _check_s2(p: ColoredPoset) -> list[Witness]:
    d, classes, els = p.diagram, p.class_masks, p.elements
    adjacent = _adjacent_masks(p)
    bad = []
    for a in d.colors:
        single = double = 0
        for b in d.neighbors(a):
            t = d.theta(b, a)
            if t == -1:
                single |= classes[b]
            elif t == -2:
                double |= classes[b]
        for i, j in _consecutive(p, a):
            interval = p.up_masks[i] & p.down_masks[j]
            near = interval & adjacent[a]
            two_single = near.bit_count() == 2 and not near & ~single
            one_double = interval.bit_count() == 1 and interval & double
            if not (two_single or one_double):
                shape = f"interval shape for {a!r}"
                bad.append(Witness((els[i], els[j]), value=near.bit_count(), note=shape))
    return bad


def _check_s3(p: ColoredPoset) -> list[Witness]:
    up, classes = p.up_masks, p.class_masks
    bad = []
    for a in p.diagram.colors:
        cls = classes[a]
        for i in bits(cls):
            if up[i] & cls:
                continue
            x = p.elements[i]
            above = p.covers_of(x)
            if len(above) > 1:
                bad.append(Witness((x,) + above, value=len(above), note="covered twice"))
                continue
            if above:
                z = above[0]
                c = p.coloring[z]
                z_max_in_class = not up[p.position[z]] & classes[c]
                if p.diagram.theta(c, a) != -1 or not z_max_in_class:
                    bad.append(Witness((x, z), note="cover not a 1-adjacent class maximum"))
    return bad


def _check_s4(p: ColoredPoset) -> list[Witness]:
    from .dynkin import is_acyclic

    if is_acyclic(p.diagram):
        return []
    return [Witness((), note="diagram has a cycle")]


# UCBk or UCB(k), and the same for LCB
_PARAM = re.compile(r"(UCB|LCB)(?:(\d+)|\((\d+)\))")


_SIMPLE = {
    "EC": _check_ec,
    "NA": _check_na,
    "AC": _check_ac,
    "ICE2": _check_ice2,
    "S1": _check_s1,
    "S2": _check_s2,
    "S3": _check_s3,
    "S4": _check_s4,
}


def check(p: ColoredPoset, prop: str) -> AxiomReport:
    """Verify one named property, collecting every witness of failure."""
    name = prop.strip().upper()
    if name in _SIMPLE:
        witnesses = _SIMPLE[name](p)
    else:
        m = _PARAM.fullmatch(name)
        if not m:
            raise UnknownProperty(prop)
        k = int(m.group(2) or m.group(3))
        witnesses = _check_frontier(p, k, upper=m.group(1) == "UCB")
    return AxiomReport(name, not witnesses, tuple(witnesses))


def is_d_complete(p: ColoredPoset) -> tuple[bool, list[AxiomReport]]:
    """EC, NA, AC, ICE2 and UCB1 together."""
    reports = [check(p, name) for name in D_COMPLETE_PROPERTIES]
    return all(r.holds for r in reports), reports


def is_minuscule(p: ColoredPoset) -> tuple[bool, list[AxiomReport]]:
    """d-complete plus LCB1."""
    ok, reports = is_d_complete(p)
    lcb = check(p, "LCB1")
    reports.append(lcb)
    return ok and lcb.holds, reports


def is_dominant_minuscule_heap(p: ColoredPoset) -> bool:
    """S1, S2, S3 and S4 together."""
    return all(check(p, name).holds for name in ("S1", "S2", "S3", "S4"))


def is_slant_irreducible(p: ColoredPoset) -> bool:
    """
    No top-tree cover x -> y where y is the only element of its color.

    Defined for connected finite d-complete posets.
    """
    from .poset import connected_components

    if len(connected_components(p)) != 1:
        raise NotConnectedPoset("slant irreducibility needs a connected poset")
    ok, _ = is_d_complete(p)
    if not ok:
        raise NotDComplete("slant irreducibility is defined for d-complete posets")
    tree = top_tree(p)
    for x, y in tree.covers:
        if len(p.color_class(p.color(y))) == 1:
            return False
    return True
