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

The coloring axioms come from two passes over a poset's masks.  The
comparability pass decides EC, NA and AC in one loop over positions; the
census pass computes the ICE2 interval census of each consecutive
same-colored pair and the frontier census of each class extreme, which UCBk
and LCBk filter for any k.  `check` is the one entry point: the first check
of a property runs its pass, which is kept on that `ColoredPoset` instance,
so `is_minuscule` runs each pass once, and EC alone runs no census pass.
Nothing is shared between instances.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple

from .dynkin import Color
from .poset import ColoredPoset, bits

__all__ = [
    "AxiomReport",
    "Witness",
    "UnknownProperty",
    "check",
    "frontier_censuses",
    "is_d_complete",
    "is_minuscule",
    "is_dominant_minuscule_heap",
    "D_COMPLETE_PROPERTIES",
]


class UnknownProperty(ValueError):
    pass


class Witness(NamedTuple):
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


class AxiomReport(NamedTuple):
    property: str
    holds: bool
    witnesses: tuple[Witness, ...] = ()

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


def _census(terms: Iterable[tuple[int, int]], mask: int) -> int:
    """The census of a mask over (weight, class mask) terms."""
    census = 0
    for w, m in terms:
        census += w * (mask & m).bit_count()
    return census


def _next_above(p: ColoredPoset, i: int, cls: int) -> list[int]:
    """The minimal elements of the class mask cls strictly above position i,
    by position.  Each element scanned takes itself and all above it out of
    the scan.  The scan runs from the highest position, so in a chain
    numbered top down, as the catalog and the extension number theirs, it
    takes one step."""
    up, down = p.up_masks, p.down_masks
    above = up[i] & cls
    nexts, rest = [], above
    while rest:
        j = rest.bit_length() - 1
        if not down[j] & above:
            nexts.append(j)
        rest &= ~(up[j] | 1 << j)
    nexts.reverse()
    return nexts


def _report(name: str, witnesses: list[Witness]) -> AxiomReport:
    return AxiomReport(name, not witnesses, tuple(witnesses))


def _memo(p: ColoredPoset, run: Callable[[ColoredPoset], dict]) -> dict:
    """The result of one pass over p, run at most once per poset and kept on
    it, so each later `check` of the pass's properties only reads it."""
    memo, key = vars(p), run.__name__
    result = memo.get(key)
    if result is None:
        result = memo[key] = run(p)
    return result


def _comparability_pass(p: ColoredPoset) -> dict[str, AxiomReport]:
    """The EC, NA and AC reports, in one loop over positions.

    The later elements incomparable to element i within its class are its
    EC witnesses, within the classes of its color's neighbours its AC
    witnesses.  Its upper covers outside those neighbour classes are its NA
    witnesses.  NA and AC are listed in element order, and EC, gathered in
    element order too, is then sorted color-major."""
    adjacent, classes, coloring = _adjacent_masks(p), p.class_masks, p.coloring
    els, up, down, covers = p.elements, p.up_masks, p.down_masks, p.cover_masks
    ec: list[tuple[Color, Witness]] = []
    na: list[Witness] = []
    ac: list[Witness] = []
    for i, x in enumerate(els):
        a = coloring[x]
        cls, near = classes[a], adjacent[a]
        later = ~(up[i] | down[i] | (2 << i) - 1)  # after i and incomparable to it
        if later & cls:
            note = f"equal color {a!r}, incomparable"
            ec += [(a, Witness((x, els[j]), note=note)) for j in bits(later & cls)]
        if covers[i] & ~near:
            for j in bits(covers[i] & ~near):
                note = f"cover with non-adjacent colors {a!r},{coloring[els[j]]!r}"
                na.append(Witness((x, els[j]), note=note))
        if later & near:
            note = "adjacent colors, incomparable"
            ac += [Witness((x, els[j]), note=note) for j in bits(later & near)]
    ec.sort(key=lambda aw: p.diagram.index(aw[0]))
    return {
        "EC": _report("EC", [w for _, w in ec]),
        "NA": _report("NA", na),
        "AC": _report("AC", ac),
    }


def _census_pass(p: ColoredPoset) -> dict:
    """The ICE2 report and the frontier censuses, color by color.

    Per color a: the census of the open interval of each consecutive pair of
    a-elements, and the census of all that each maximal ("UCB") or minimal
    ("LCB") a-element reaches, as (color, element, census) triples that UCBk
    and LCBk filter for any k.  Neither set holds an element of color a, so a
    census for a weighs only the classes of a's neighbours, those of equal
    weight counted together; distant colors weigh nothing.  ICE2 witnesses
    are listed color-major, each pair by its lower element and then its
    upper one; the triples color-major, in element order within a class."""
    d, classes, els, up, down = p.diagram, p.class_masks, p.elements, p.up_masks, p.down_masks
    ice2: list[Witness] = []
    upper: list[tuple[Color, int, int]] = []
    lower: list[tuple[Color, int, int]] = []
    for a in d.colors:
        weights: dict[int, int] = {}
        for b in d.neighbors(a):
            w = -d.theta(b, a)
            weights[w] = weights.get(w, 0) | classes[b]
        terms = weights.items()
        cls = classes[a]
        for i in bits(cls):
            ui, di = up[i], down[i]
            if ui & cls:
                for j in _next_above(p, i, cls):
                    census = _census(terms, ui & down[j])
                    if census != 2:
                        note = f"interval census for {a!r}"
                        ice2.append(Witness((els[i], els[j]), value=census, note=note))
            else:
                upper.append((a, els[i], _census(terms, ui)))
            if not di & cls:
                lower.append((a, els[i], _census(terms, di)))
    return {"ICE2": _report("ICE2", ice2), "UCB": upper, "LCB": lower}


def _check_s1(p: ColoredPoset) -> list[Witness]:
    adjacent, els, coloring = _adjacent_masks(p), p.elements, p.coloring
    up, down, covers = p.up_masks, p.down_masks, p.cover_masks
    near = {a: m | p.class_masks[a] for a, m in adjacent.items()}
    bad = []
    for i, x in enumerate(els):
        for j in bits(covers[i] & ~near[coloring[x]]):
            bad.append(Witness((x, els[j]), note="neighbors with distant colors"))
    for i, x in enumerate(els):
        later = ~(up[i] | down[i] | (2 << i) - 1)
        for j in bits(later & near[coloring[x]]):
            bad.append(Witness((x, els[j]), note="incomparable, colors not distant"))
    return bad


def _check_s2(p: ColoredPoset) -> list[Witness]:
    d, classes, els, up, down = p.diagram, p.class_masks, p.elements, p.up_masks, p.down_masks
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
        cls = classes[a]
        for i in bits(cls):
            for j in _next_above(p, i, cls):
                interval = up[i] & down[j]
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
            x, above = p.elements[i], p.cover_masks[i]
            if above.bit_count() > 1:
                twice = Witness((x,) + p.members(above), value=above.bit_count(), note="covered twice")
                bad.append(twice)
                continue
            if above:
                k = above.bit_length() - 1
                z = p.elements[k]
                c = p.coloring[z]
                if p.diagram.theta(c, a) != -1 or up[k] & classes[c]:
                    bad.append(Witness((x, z), note="cover not a 1-adjacent class maximum"))
    return bad


def _check_s4(p: ColoredPoset) -> list[Witness]:
    from .dynkin import is_acyclic

    if is_acyclic(p.diagram):
        return []
    return [Witness((), note="diagram has a cycle")]


# UCBk or UCB(k), and the same for LCB
_PARAM = re.compile(r"(UCB|LCB)(?:(\d+)|\((\d+)\))")

_HEAP = {"S1": _check_s1, "S2": _check_s2, "S3": _check_s3, "S4": _check_s4}


def check(p: ColoredPoset, prop: str) -> AxiomReport:
    """Verify one named property, collecting every witness of failure.  The
    coloring axioms read the pass they belong to, run once per poset."""
    name = prop.strip().upper()
    if name in ("EC", "NA", "AC"):
        return _memo(p, _comparability_pass)[name]
    if name == "ICE2":
        return _memo(p, _census_pass)[name]
    if name in _HEAP:
        return _report(name, _HEAP[name](p))
    m = _PARAM.fullmatch(name)
    if not m:
        raise UnknownProperty(
            f"unknown property {prop!r}; expected EC, NA, AC, ICE2, S1-S4, "
            "UCBk/UCB(k) or LCBk/LCB(k)"
        )
    side, k = m.group(1), int(m.group(2) or m.group(3))
    note = "upper" if side == "UCB" else "lower"
    return _report(name, [
        Witness((x,), value=census, note=f"{note} frontier census for {a!r}")
        for a, x, census in frontier_censuses(p, side)
        if census > k
    ])


def frontier_censuses(p: ColoredPoset, side: str) -> list[tuple[Color, int, int]]:
    """The frontier census of every maximal ("UCB") or minimal ("LCB")
    element of each color class, as (color, element, census) triples,
    color-major and in element order within a class, read from the census
    pass (run once per poset)."""
    return _memo(p, _census_pass)[side]


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
