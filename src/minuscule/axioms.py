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

from .dynkin import Color
from .poset import ColoredPoset, top_tree

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


def _check_ec(p: ColoredPoset) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        cls = p.color_class(a)
        for i, x in enumerate(cls):
            for y in cls[i + 1 :]:
                if not p.comparable(x, y):
                    bad.append(Witness((x, y), note=f"equal color {a!r}, incomparable"))
    return bad


def _check_na(p: ColoredPoset) -> list[Witness]:
    bad = []
    for x, y in sorted(p.covers):
        a, b = p.color(x), p.color(y)
        if not p.diagram.adjacent(a, b):
            bad.append(Witness((x, y), note=f"cover with non-adjacent colors {a!r},{b!r}"))
    return bad


def _check_ac(p: ColoredPoset) -> list[Witness]:
    bad = []
    for i, x in enumerate(p.elements):
        for y in p.elements[i + 1 :]:
            if p.diagram.adjacent(p.color(x), p.color(y)) and not p.comparable(x, y):
                bad.append(Witness((x, y), note="adjacent colors, incomparable"))
    return bad


def _check_ice2(p: ColoredPoset) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        for x, y in p.consecutive_same_color_pairs(a):
            census = p.census(a, p.open_interval(x, y))
            if census != 2:
                bad.append(Witness((x, y), value=census, note=f"interval census for {a!r}"))
    return bad


def _frontier_censuses(p: ColoredPoset, upper: bool) -> list[tuple[Color, int, int]]:
    """(color, extreme element, census) triples over maximal/minimal elements
    of each color class."""
    out = []
    for a in p.diagram.colors:
        cls = p.color_class(a)
        for x in cls:
            if upper and any(p.lt(x, y) for y in cls):
                continue
            if not upper and any(p.lt(y, x) for y in cls):
                continue
            frontier = p.upper_frontier(x) if upper else p.lower_frontier(x)
            census = p.census(a, frontier)
            out.append((a, x, census))
    return out


def _check_ucb(p: ColoredPoset, k: int) -> list[Witness]:
    return [
        Witness((x,), value=census, note=f"upper frontier census for {a!r}")
        for a, x, census in _frontier_censuses(p, upper=True)
        if census > k
    ]


def _check_lcb(p: ColoredPoset, k: int) -> list[Witness]:
    return [
        Witness((x,), value=census, note=f"lower frontier census for {a!r}")
        for a, x, census in _frontier_censuses(p, upper=False)
        if census > k
    ]


def _check_s1(p: ColoredPoset) -> list[Witness]:
    bad = []
    for x, y in sorted(p.covers):
        a, b = p.color(x), p.color(y)
        if a != b and not p.diagram.adjacent(a, b):
            bad.append(Witness((x, y), note="neighbors with distant colors"))
    for i, x in enumerate(p.elements):
        for y in p.elements[i + 1 :]:
            if p.comparable(x, y):
                continue
            a, b = p.color(x), p.color(y)
            if a == b or p.diagram.adjacent(a, b):
                bad.append(Witness((x, y), note="incomparable, colors not distant"))
    return bad


def _check_s2(p: ColoredPoset) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        for x, y in p.consecutive_same_color_pairs(a):
            interval = sorted(p.open_interval(x, y))
            adjacent = [z for z in interval if p.diagram.adjacent(p.color(z), a)]
            two_single = len(adjacent) == 2 and all(
                p.diagram.theta(p.color(z), a) == -1 for z in adjacent
            )
            one_double = len(interval) == 1 and p.diagram.theta(p.color(interval[0]), a) == -2
            if not (two_single or one_double):
                bad.append(
                    Witness((x, y), value=len(adjacent), note=f"interval shape for {a!r}")
                )
    return bad


def _check_s3(p: ColoredPoset) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        cls = p.color_class(a)
        for x in cls:
            if any(p.lt(x, y) for y in cls):
                continue
            above = p.covers_of(x)
            if len(above) > 1:
                bad.append(Witness((x,) + above, value=len(above), note="covered twice"))
                continue
            if above:
                z = above[0]
                c = p.color(z)
                z_max_in_class = not any(p.lt(z, w) for w in p.color_class(c))
                if p.diagram.theta(c, a) != -1 or not z_max_in_class:
                    bad.append(Witness((x, z), note="cover not a 1-adjacent class maximum"))
    return bad


def _check_s4(p: ColoredPoset) -> list[Witness]:
    from .dynkin import is_acyclic

    if is_acyclic(p.diagram):
        return []
    return [Witness((), note="diagram has a cycle")]


_PARAM = re.compile(r"^(UCB|LCB)\(?(\d+)\)?$")


def check(p: ColoredPoset, prop: str) -> AxiomReport:
    """Verify one named property, collecting every witness of failure."""
    name = prop.strip().upper()
    simple = {
        "EC": _check_ec,
        "NA": _check_na,
        "AC": _check_ac,
        "ICE2": _check_ice2,
        "S1": _check_s1,
        "S2": _check_s2,
        "S3": _check_s3,
        "S4": _check_s4,
    }
    if name in simple:
        witnesses = simple[name](p)
    else:
        m = _PARAM.match(name)
        if not m:
            raise UnknownProperty(prop)
        k = int(m.group(2))
        witnesses = _check_ucb(p, k) if m.group(1) == "UCB" else _check_lcb(p, k)
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
