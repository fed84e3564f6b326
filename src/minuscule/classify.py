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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .axioms import AxiomReport, check, is_minuscule
from .catalog import FAMILIES, FamilyId, family_of, kac_automorphisms, orbit_walk
from .dynkin import Color, recognize_finite_type
from .poset import ColoredPoset, connected_components

__all__ = ["ComponentClassification", "Classification", "classify", "classify_connected"]


@dataclass(frozen=True)
class ComponentClassification:
    component: ColoredPoset
    family: Optional[FamilyId]
    all_matches: tuple[FamilyId, ...]
    witness: Optional[tuple[dict[int, int], dict[Color, Color]]]
    failures: tuple[AxiomReport, ...]

    @property
    def minuscule(self) -> bool:
        return self.family is not None

    def to_json(self) -> dict:
        out: dict = {
            "elements": list(self.component.elements),
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


@dataclass(frozen=True)
class Classification:
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
    """Name the family of one connected poset, with an isomorphism witness."""
    ok, reports = is_minuscule(p)
    if not ok:
        return ComponentClassification(p, None, (), None, tuple(reports))
    ftype = recognize_finite_type(p.diagram)
    maxima = p.maximal_elements()
    if ftype is None or len(maxima) != 1:
        # cannot happen for minuscule inputs; classification is complete
        raise AssertionError("minuscule poset matched no family")
    nu, d = ftype.numbering_map, p.diagram
    j = nu[p.color(maxima[0])]
    sigmas = kac_automorphisms(ftype.letter, ftype.rank)
    matches = sorted(
        {family_of(ftype.letter, ftype.rank, s[j]) for s in sigmas}, key=FamilyId.sort_key
    )
    # the family's poset is the heap of the walk from its top color, walked on
    # p's own diagram read through nu: row nu(a) lists a's pairings
    _, _, _, _, top_of = FAMILIES[matches[0].kind]
    top = top_of(matches[0].n, matches[0].j)
    rows = [()] * (ftype.rank + 1)
    for a, row in zip(d.colors, d.matrix):
        rows[nu[a]] = [(nu[b], row[d.index(b)]) for b in d.neighbors(a)]
    word, covers = orbit_walk(ftype.letter, rows, top)
    # of the pairings sending top to top, the least along p's color order: the
    # one the test oracle, a search through p's colors in order, meets first
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
        x: y for a in d.colors for x, y in zip(p.class_chain(a), chains[gamma[a]])
    }
    if len(pi) != len(p) or len(p) != len(word) or {(pi[x], pi[y]) for x, y in p.covers} != set(covers):
        raise AssertionError(f"minuscule poset does not match {matches[0]}")
    return ComponentClassification(p, matches[0], tuple(matches), (pi, gamma), ())


def classify(p: ColoredPoset) -> Classification:
    """
    Component-wise classification; minuscule iff every component matches and
    the comparability axioms hold across components (equal or adjacent colors
    may not straddle two components).  A connected p is its own only
    component, so its EC and AC reports are read from the passes that
    classifying it ran, and no pass runs twice.
    """
    entries = tuple(classify_connected(c) for c in connected_components(p))
    cross = tuple(r for r in (check(p, "EC"), check(p, "AC")) if not r.holds)
    return Classification(entries, cross)
