"""
Downward extension of d-complete posets, driven by lower frontier censuses.

A connected finite d-complete poset P is extendable by a color exactly when
that color's lower frontier census is 2; the new bottom element's covers are
forced.  Iterating "assess, then extend every census-2 color" either stops at
a minuscule poset (all censuses at most 1) or proves that no minuscule poset
has the given top tree (a census above 2, or two adjacent census-2 colors).
The census-2 colors of a stage are pairwise non-adjacent, so their new
elements are independent, and `extend_by` adjoins the whole stage in one
poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .axioms import is_d_complete
from .dynkin import Color, is_simply_laced
from .poset import ColoredPoset

__all__ = [
    "ColorAbsent",
    "NotExtendable",
    "Assessment",
    "StageRecord",
    "ExtensionOutcome",
    "lower_frontier_census",
    "extend_by",
    "assess",
    "run_extension",
    "STAGE_CAP_FACTOR",
]

STAGE_CAP_FACTOR = 64


class ColorAbsent(ValueError):
    pass


class NotExtendable(ValueError):
    def __init__(self, color: Color, census: int):
        self.color = color
        self.census = census
        super().__init__(f"census for {color!r} is {census}, extension needs 2")


def _min_of_color(p: ColoredPoset, b: Color) -> int:
    cls = p.color_class(b)
    if not cls:
        raise ColorAbsent(f"color {b!r} does not appear in the poset")
    mins = [x for x in cls if not any(p.lt(y, x) for y in cls)]
    if len(mins) != 1:
        raise ValueError(f"color class {b!r} has {len(mins)} minimal elements")
    return mins[0]


def lower_frontier_census(p: ColoredPoset, b: Color) -> int:
    """Weighted count of adjacent-colored elements below the minimal element
    of the color class of b."""
    y = _min_of_color(p, b)
    return p.census(b, p.lower_frontier(y))


def extend_by(p: ColoredPoset, *colors: Color) -> ColoredPoset:
    """
    Adjoin one new minimal element of each color (each census must equal 2).

    The new element of color a is covered exactly by the minimal elements of
    L(y, P), where y is the minimal element of color a, which pins the
    extension uniquely.  The colors must be distinct and pairwise
    non-adjacent, as the census-2 colors of a stage are; then no new element
    lies in another's frontier, and adjoining them at once equals adjoining
    them one by one.  New ids follow max(p.elements) in the order given.
    """
    if len(set(colors)) != len(colors):
        raise ValueError(f"repeated color in {colors!r}")
    if any(p.diagram.adjacent(b, c) for b, c in itertools.combinations(colors, 2)):
        raise ValueError(f"adjacent colors in {colors!r}")
    coloring = dict(p.coloring)
    covers = set(p.covers)
    x = max(p.elements)
    for a in colors:
        frontier = p.lower_frontier(_min_of_color(p, a))
        census = p.census(a, frontier)
        if census != 2:
            raise NotExtendable(a, census)
        x += 1
        coloring[x] = a
        covers |= {(x, u) for u in frontier if not any(p.lt(v, u) for v in frontier)}
    return ColoredPoset(p.diagram, coloring, covers)


@dataclass(frozen=True)
class Assessment:
    """Outcome of one assessment step."""

    kind: str  # "continue" | "minuscule" | "census_exceeded" | "adjacent_pair"
    extension_set: tuple[Color, ...] = ()
    witness_color: Optional[Color] = None
    witness_census: Optional[int] = None
    witness_pair: Optional[tuple[Color, Color]] = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "continue":
            out["extension_set"] = [str(c) for c in self.extension_set]
        if self.witness_color is not None:
            out["color"] = str(self.witness_color)
            out["census"] = self.witness_census
        if self.witness_pair is not None:
            out["pair"] = [str(c) for c in self.witness_pair]
        return out


def assess(p: ColoredPoset) -> Assessment:
    """Decide whether extension terminates, and with which color set it
    continues otherwise."""
    censuses = {b: lower_frontier_census(p, b) for b in p.diagram.colors}
    if all(v <= 1 for v in censuses.values()):
        return Assessment("minuscule")
    over = [b for b in p.diagram.colors if censuses[b] > 2]
    if over:
        b = over[0]
        return Assessment("census_exceeded", witness_color=b, witness_census=censuses[b])
    twos = [b for b in p.diagram.colors if censuses[b] == 2]
    for i, b in enumerate(twos):
        for c in twos[i + 1 :]:
            if p.diagram.adjacent(b, c):
                return Assessment("adjacent_pair", witness_pair=(b, c))
    return Assessment("continue", extension_set=tuple(twos))


@dataclass(frozen=True)
class StageRecord:
    stage: int
    extension_set: tuple[Color, ...]
    added: tuple[tuple[int, Color], ...]  # (element id, color)

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "extension_set": [str(c) for c in self.extension_set],
            "added": [{"id": x, "color": str(c), "rank": self.stage} for x, c in self.added],
        }


@dataclass(frozen=True)
class ExtensionOutcome:
    poset: ColoredPoset
    verdict: str  # "minuscule" | "blocked"
    reason: Assessment  # the terminal assessment
    trace: tuple[StageRecord, ...]
    assessments: int
    extrapolated: bool = False

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "assessments": self.assessments,
            "stages": [s.to_json() for s in self.trace],
            "extrapolated": self.extrapolated,
        }
        if self.verdict == "blocked":
            out["reason"] = self.reason.to_json()
        return out


def run_extension(seed: ColoredPoset) -> ExtensionOutcome:
    """
    Grow the seed downward until the process terminates.

    The seed must be a connected finite d-complete poset (typically a Y-shaped
    top tree).  Multiply laced seeds are accepted, but the uniqueness argument
    behind the process only covers simply laced ones, so those outcomes are
    flagged extrapolated.
    """
    ok, _ = is_d_complete(seed)
    if not ok:
        raise ValueError("extension seed must be d-complete")
    cap = len(seed.diagram) * STAGE_CAP_FACTOR
    p = seed
    trace: list[StageRecord] = []
    assessments = 0
    for stage in range(1, cap + 2):
        assessments += 1
        a = assess(p)
        if a.kind != "continue":
            return ExtensionOutcome(
                p, "minuscule" if a.kind == "minuscule" else "blocked", a, tuple(trace),
                assessments, extrapolated=not is_simply_laced(seed.diagram),
            )
        size = len(p)
        p = extend_by(p, *a.extension_set)
        # the new ids exceed every old one, so they end the sorted elements
        added = tuple((x, p.color(x)) for x in p.elements[size:])
        trace.append(StageRecord(stage, a.extension_set, added))
    raise RuntimeError(
        f"extension did not terminate within {cap} stages; the seed violates "
        "the boundedness guarantee or the census bookkeeping is broken"
    )
