"""
Downward extension of d-complete posets, driven by lower frontier censuses.

The census of a color b is the weighted count, sum of -theta(c, b), of the
elements of adjacent colors c below the minimal element of color b.  A
connected finite d-complete poset P is extendable by a color exactly when its
census is 2; the new bottom element's covers are forced.  Iterating "assess,
then extend every census-2 color" either stops at a minuscule poset (all
censuses at most 1) or proves that no minuscule poset has the given top tree
(a census above 2, or two adjacent census-2 colors).

A stage only adds minimal elements, one x_a per census-2 color a, and these
colors are pairwise non-adjacent.  So a stage changes few censuses:
census(a) drops to 0, and census(c) grows by -theta(a, c) for each color c
adjacent to a whose minimal element lies above x_a.  `run_extension` keeps
the censuses and the order as bitmasks in one private state, updated stage
by stage, and builds one `ColoredPoset` at the end.  The first censuses are
the seed's lower frontier censuses, which its d-completeness check has
already taken (`axioms.frontier_censuses`).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from .axioms import frontier_censuses, is_d_complete
from .dynkin import Color, DynkinDiagram, is_simply_laced
from .poset import ColoredPoset, bits

__all__ = [
    "Assessment",
    "StageRecord",
    "ExtensionOutcome",
    "run_extension",
    "STAGE_CAP_FACTOR",
]

STAGE_CAP_FACTOR = 64


class Assessment(NamedTuple):
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


def _decide(diagram: DynkinDiagram, census: Mapping[Color, int]) -> Assessment:
    """Decide from every color's census whether extension terminates, and
    with which color set it continues otherwise; ties go to the first colors
    in canonical order."""
    if all(v <= 1 for v in census.values()):
        return Assessment("minuscule")
    over = [b for b in diagram.colors if census[b] > 2]
    if over:
        b = over[0]
        return Assessment("census_exceeded", witness_color=b, witness_census=census[b])
    twos = [b for b in diagram.colors if census[b] == 2]
    for i, b in enumerate(twos):
        for c in twos[i + 1 :]:
            if diagram.adjacent(b, c):
                return Assessment("adjacent_pair", witness_pair=(b, c))
    return Assessment("continue", extension_set=tuple(twos))


class _Growth:
    """
    A d-complete poset under downward extension, as bitmasks over positions:
    bit i is the i-th smallest element id, and each new element takes the
    next position and the next id.  Kept: every element's up-mask (the
    elements strictly above it), every color's class mask, its minimal
    element (a position; each class is a chain by EC), the down-mask of that
    minimal element, and its census.
    """

    def __init__(self, seed: ColoredPoset) -> None:
        self.diagram = seed.diagram
        self.ids = list(seed.elements)
        self.colors = [seed.color(x) for x in self.ids]
        self.covers = list(seed.covers)
        self.up = list(seed.up_masks)
        self.members = {a: seed.class_masks[a] for a in self.diagram.colors}
        # the seed's census pass found each class minimum and its census
        self.minimum: dict[Color, int] = {}
        self.census: dict[Color, int] = {}
        for a, x, census in frontier_censuses(seed, "LCB"):
            self.minimum[a], self.census[a] = seed.position[x], census
        self.below = {a: seed.down_masks[i] for a, i in self.minimum.items()}

    def extend(self, colors: tuple[Color, ...]) -> tuple[tuple[int, Color], ...]:
        """Adjoin one new minimal element of each census-2 color, the colors
        pairwise non-adjacent; returns the (id, color) pairs added."""
        d = self.diagram
        added = []
        for a in colors:
            adjacent = 0
            for c in d.neighbors(a):
                adjacent |= self.members[c]
            frontier = self.below[a] & adjacent
            reach = 0
            for u in bits(frontier):
                reach |= self.up[u]
            i, x = len(self.ids), self.ids[-1] + 1
            # x is covered by the minimal elements of its frontier
            self.covers += [(x, self.ids[u]) for u in bits(frontier & ~reach)]
            up = frontier | reach
            self.ids.append(x)
            self.colors.append(a)
            self.up.append(up)
            self.members[a] |= 1 << i
            for c, y in self.minimum.items():
                if up >> y & 1:
                    self.below[c] |= 1 << i
            # x joins the lower frontier of every adjacent color's minimum above it
            for c in d.neighbors(a):
                if up >> self.minimum[c] & 1:
                    self.census[c] -= d.theta(a, c)
            self.minimum[a], self.below[a], self.census[a] = i, 0, 0
            added.append((x, a))
        return tuple(added)

    def poset(self) -> ColoredPoset:
        return ColoredPoset(self.diagram, dict(zip(self.ids, self.colors)), self.covers)


class StageRecord(NamedTuple):
    stage: int
    extension_set: tuple[Color, ...]
    added: tuple[tuple[int, Color], ...]  # (element id, color)

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "extension_set": [str(c) for c in self.extension_set],
            "added": [{"id": x, "color": str(c), "rank": self.stage} for x, c in self.added],
        }


class ExtensionOutcome(NamedTuple):
    poset: ColoredPoset
    verdict: str  # "minuscule" | "blocked"
    reason: Assessment  # the terminal assessment
    trace: tuple[StageRecord, ...]
    assessments: int
    extrapolated: bool = False

    def to_json(self, stages: bool = True) -> dict:
        """The outcome as a document; the stage records only when asked for."""
        out = {
            "verdict": self.verdict,
            "assessments": self.assessments,
            "extrapolated": self.extrapolated,
        }
        if stages:
            out["stages"] = [s.to_json() for s in self.trace]
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
    growth = _Growth(seed)
    trace: list[StageRecord] = []
    assessments = 0
    for stage in range(1, cap + 2):
        assessments += 1
        a = _decide(seed.diagram, growth.census)
        if a.kind != "continue":
            return ExtensionOutcome(
                growth.poset(), "minuscule" if a.kind == "minuscule" else "blocked", a,
                tuple(trace), assessments, extrapolated=not is_simply_laced(seed.diagram),
            )
        trace.append(StageRecord(stage, a.extension_set, growth.extend(a.extension_set)))
    raise RuntimeError(
        f"extension did not terminate within {cap} stages; the seed violates "
        "the boundedness guarantee or the census bookkeeping is broken"
    )
