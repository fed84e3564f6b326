"""
Decide whether a colored poset is minuscule and name its components.

Connected finite minuscule posets are exactly Proctor's colored minuscule
posets, one for each finite type and minuscule node: the finite type of the
diagram and the Kac number j of the top color name the family, with no
search.  The diagram isomorphisms onto the family's Kac-numbered diagram are
sigma . nu for the recognized numbering nu and each diagram automorphism
sigma, so the families matched are those of sigma(j).  The witness is forced
too: by EC every color class is a chain, so once the colors are paired the
k-th element of a class goes to the k-th element of its image class.

The family's poset is the heap of the orbit walk from its top color, and nu
carries the component's own diagram onto the Kac-numbered one, so the walk
runs on the component's pairings, row nu(a) listing a's neighbours in the
diagram's order.  The walk gives the same word and covers in any row order
(`catalog.orbit_walk`), so no catalog poset is built: the family's class
chain of a color is its letters, latest first, and the witness must carry
the component's covers onto the walk's.

A disconnected input is classified on itself, each component a position
mask, and no component poset is built: both axiom passes run once, on the
input, and each component's six reports are the input's with their
witnesses restricted to the component's elements.

* An up-set, a down-set and an interval of an element lie inside its
  component.  So every ICE2 pair, every frontier census and every NA cover
  is local, and a census weighs only the classes of its own component; the
  component's diagram is the input's restricted to its colors, with the same
  pairings.  EC and AC witnesses inside a component are pairs of it.
* Restriction keeps each pass's order: color-major in canonical order for EC
  and ICE2, as `DynkinDiagram.restrict` keeps the canonical order, and
  element order for NA and AC.
* The EC and AC witnesses that span two components are exactly what the
  global failures add; those stay the input's full EC and AC reports when
  they fail.

The theorem route then reads each component off the input: its diagram is
the restriction to its colors, its maximal element the one in its mask, each
class chain the class's part in its mask (right even when two components
share a color), and its covers are handed out in one pass.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .axioms import AxiomReport, Witness, check, is_minuscule
from .catalog import FAMILIES, FamilyId, family_of, kac_automorphisms, orbit_walk
from .dynkin import Color, recognize_finite_type
from .poset import ColoredPoset, bits, component_masks

__all__ = ["ComponentClassification", "Classification", "classify", "classify_connected"]


class ComponentClassification(NamedTuple):
    elements: tuple[int, ...]
    family: Optional[FamilyId]
    all_matches: tuple[FamilyId, ...]
    witness: Optional[tuple[dict[int, int], dict[Color, Color]]]
    failures: tuple[AxiomReport, ...]

    @property
    def minuscule(self) -> bool:
        return self.family is not None

    def to_json(self) -> dict:
        out: dict = {
            "elements": list(self.elements),
            "minuscule": self.minuscule,
            "family": str(self.family) if self.family else None,
            "matches": [str(f) for f in self.all_matches],
        }
        if self.witness is not None:
            pi, gamma = self.witness
            out["witness"] = {
                "elements": {str(k): v for k, v in sorted(pi.items())},
                "colors": {str(k): str(v) for k, v in gamma.items()},
            }
        if self.failures:
            out["failures"] = [r.to_json() for r in self.failures if not r.holds]
        return out


class Classification(NamedTuple):
    components: tuple[ComponentClassification, ...]
    global_failures: tuple[AxiomReport, ...] = ()

    @property
    def minuscule(self) -> bool:
        return not self.global_failures and all(c.minuscule for c in self.components)

    def family_multiset(self) -> tuple[str, ...]:
        return tuple(sorted(str(c.family) for c in self.components))

    def to_json(self) -> dict:
        out = {
            "version": 1,
            "minuscule": self.minuscule,
            "components": [c.to_json() for c in self.components],
        }
        if self.global_failures:
            out["global_failures"] = [r.to_json() for r in self.global_failures]
        return out


def classify_connected(p: ColoredPoset) -> ComponentClassification:
    """Name the family of one connected poset, with an isomorphism witness:
    the route `classify` takes on each component, here on all of p."""
    _, reports = is_minuscule(p)
    return _classified(p, (1 << len(p)) - 1, reports, p.covers)


def _classified(
    p: ColoredPoset, mask: int, reports: list[AxiomReport], covers: Iterable[tuple[int, int]]
) -> ComponentClassification:
    """The classification of the component of p at a position mask, given its
    six axiom reports and its covers."""
    elements = p.members(mask)
    if not all(r.holds for r in reports):
        return ComponentClassification(elements, None, (), None, tuple(reports))
    colors = {p.coloring[x] for x in elements}
    d = p.diagram if len(colors) == len(p.diagram) else p.diagram.restrict(colors)
    ftype = recognize_finite_type(d)
    maxima = [i for i in bits(mask) if not p.cover_masks[i]]
    if ftype is None or len(maxima) != 1:
        # cannot happen for minuscule inputs; classification is complete
        raise AssertionError("minuscule poset matched no family")
    nu = ftype.numbering_map
    j = nu[p.coloring[p.elements[maxima[0]]]]
    sigmas = kac_automorphisms(ftype.letter, ftype.rank)
    matches = sorted(
        {family_of(ftype.letter, ftype.rank, s[j]) for s in sigmas}, key=FamilyId.sort_key
    )
    # the family's poset is the heap of the walk from its top color, walked on
    # the component's own diagram read through nu: row nu(a) lists a's pairings
    _, _, _, _, top_of = FAMILIES[matches[0].kind]
    top = top_of(matches[0].n, matches[0].j)
    rows = d.numbered_rows(nu)
    word, walked = orbit_walk(ftype.letter, rows, top)
    # of the pairings sending top to top, the least along d's color order: the
    # one the test oracle, a search through d's colors in order, meets first
    gamma = min(
        ({a: s[nu[a]] for a in d.colors} for s in sigmas if s[j] == top),
        key=lambda g: [g[a] for a in d.colors],
        default=None,
    )
    # later letters lie lower, so the family's class chain of color k, bottom
    # first, is the letters equal to k, latest first
    chains: list[list[int]] = [[] for _ in rows]
    for t in range(len(word), 0, -1):
        chains[word[t - 1]].append(t)
    pi = {} if gamma is None else {
        x: y for a in d.colors for x, y in zip(p.class_chain(a, mask), chains[gamma[a]])
    }
    n = len(elements)
    if len(pi) != n or n != len(word) or {(pi[x], pi[y]) for x, y in covers} != set(walked):
        raise AssertionError(f"minuscule poset does not match {matches[0]}")
    return ComponentClassification(elements, matches[0], tuple(matches), (pi, gamma), ())


def _components(p: ColoredPoset, reports: list[AxiomReport]) -> list[tuple]:
    """Each component of p as (mask, six reports, covers): p's reports with
    their witnesses restricted to the component, and the covers of p between
    its elements, handed out in one pass.  A connected p is its own only
    component, with p's own reports and covers."""
    masks = component_masks(p)
    if len(masks) == 1:
        return [(masks[0], reports, p.covers)]
    owner = [0] * len(p)
    for k, mask in enumerate(masks):
        for i in bits(mask):
            owner[i] = k
    at = p.position
    covers: list[list[tuple[int, int]]] = [[] for _ in masks]
    for x, y in p.covers:
        covers[owner[at[x]]].append((x, y))
    local: list[list[AxiomReport]] = [[] for _ in masks]
    for r in reports:
        kept: list[list[Witness]] = [[] for _ in masks]
        for w in r.witnesses:
            k = owner[at[w.elements[0]]]
            if all(owner[at[x]] == k for x in w.elements):
                kept[k].append(w)
        for own, ws in zip(local, kept):
            own.append(AxiomReport(r.property, not ws, tuple(ws)))
    return list(zip(masks, local, covers))


def classify(p: ColoredPoset) -> Classification:
    """
    Component-wise classification; minuscule iff every component matches and
    the comparability axioms hold across components (equal or adjacent colors
    may not straddle two components).  Both axiom passes run once, on p: each
    component reads p's reports restricted to it, and the cross-component EC
    and AC checks read p's full reports, so no pass runs twice.
    """
    _, reports = is_minuscule(p)
    entries = tuple(_classified(p, *parts) for parts in _components(p, reports))
    cross = tuple(r for r in (check(p, "EC"), check(p, "AC")) if not r.holds)
    return Classification(entries, cross)
