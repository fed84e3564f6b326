"""
Coroot realization of connected finite colored minuscule posets.

Coroots are integer coordinate vectors over the simple coroots, indexed by
the Kac node numbering.  The simple reflection for node i acts by

    s_i(beta) = beta - (sum_j theta[i][j] * beta[j]) * alpha_i

where theta is the diagram's pairing matrix read in numbered order.  Words of
simple reflections act with the rightmost letter first.

For a minuscule poset P with maximal color j, each element x determines the
Weyl group element of its principal filter; the last coroot of the word's
inversion sequence realizes x inside the filter of positive coroots above
alpha_j, and transporting the coloring along this map yields a colored
minuscule poset of coroots dual isomorphic to P.  Its covers are the steps
beta -> beta + alpha_i inside the filter.

Each diagram's `CorootSystem` is built once (`coroot_system`) and shared by
the command line and `psi`; it computes its positive coroots once, and a
reflection reads only the nonzero entries of its row.  `psi` applies each
element's word to every positive coroot once, and both the inversion-set and
the outside-coroot certificates read those images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .axioms import is_minuscule
from .dynkin import DynkinDiagram, FiniteTypeId, recognize_finite_type
from .poset import ColoredPoset, first_linear_extension

__all__ = [
    "Coroot",
    "ReducedWord",
    "NotFiniteType",
    "NotReduced",
    "NotMinusculeInput",
    "CorootSystem",
    "coroot_system",
    "simple_reflection",
    "positive_coroots",
    "highest_coroot",
    "coroot_filter",
    "coroot_poset",
    "heap_to_word",
    "inversion_sequence",
    "psi",
    "PsiRealization",
]

Coroot = tuple[int, ...]
ReducedWord = tuple[int, ...]


class NotFiniteType(ValueError):
    pass


class NotReduced(ValueError):
    pass


class NotMinusculeInput(ValueError):
    pass


def _height(beta: Coroot) -> int:
    return sum(beta)


def _display_key(beta: Coroot) -> tuple:
    """Height first; ties broken toward low-index support."""
    return (_height(beta), tuple(-v for v in beta))


def _is_positive(beta: Coroot) -> bool:
    return any(beta) and all(v >= 0 for v in beta)


def _is_negative(beta: Coroot) -> bool:
    return any(beta) and all(v <= 0 for v in beta)


def _leq(a: Coroot, b: Coroot) -> bool:
    """Coroot order: b - a is a nonnegative sum of simple coroots."""
    return all(x <= y for x, y in zip(a, b))


class CorootSystem:
    """The coroot lattice of a connected finite-type diagram, in Kac numbering."""

    def __init__(self, diagram: DynkinDiagram):
        ft = recognize_finite_type(diagram)
        if ft is None:
            raise NotFiniteType("diagram does not have finite Lie type")
        self.diagram = diagram
        self.type: FiniteTypeId = ft
        self.n = ft.rank
        order = [ft.color_of(i) for i in range(1, self.n + 1)]
        self.theta = [
            [diagram.theta(a, b) for b in order] for a in order
        ]
        # the nonzero entries of each row: node i and its neighbours
        self._row_support = [[(j, v) for j, v in enumerate(row) if v] for row in self.theta]
        self._positive: Optional[tuple[Coroot, ...]] = None

    # -- reflections ----------------------------------------------------------

    def reflect(self, i: int, beta: Coroot) -> Coroot:
        """Apply the simple reflection for node i (1-based)."""
        coeff = 0
        for j, v in self._row_support[i - 1]:
            coeff += v * beta[j]
        if coeff == 0:
            return beta
        out = list(beta)
        out[i - 1] -= coeff
        return tuple(out)

    def apply_word(self, word: Sequence[int], beta: Coroot) -> Coroot:
        """Act by the word read right to left (rightmost reflection first)."""
        for i in reversed(word):
            beta = self.reflect(i, beta)
        return beta

    def simple(self, i: int) -> Coroot:
        return tuple(1 if j == i - 1 else 0 for j in range(self.n))

    # -- coroot sets -----------------------------------------------------------

    def positive_coroots(self) -> tuple[Coroot, ...]:
        """Closure of the simple coroots under reflections, positive cone only,
        sorted by height then coordinates; computed once per system."""
        if self._positive is not None:
            return self._positive
        found = {self.simple(i) for i in range(1, self.n + 1)}
        frontier = set(found)
        while frontier:
            nxt = set()
            for beta in frontier:
                for i in range(1, self.n + 1):
                    img = self.reflect(i, beta)
                    if _is_positive(img) and img not in found:
                        found.add(img)
                        nxt.add(img)
            frontier = nxt
        self._positive = tuple(sorted(found, key=_display_key))
        return self._positive

    def highest_coroot(self) -> Coroot:
        return max(self.positive_coroots(), key=lambda b: _height(b))

    def filter_at(self, j: int) -> tuple[Coroot, ...]:
        """Positive coroots above the simple coroot of node j."""
        alpha = self.simple(j)
        return tuple(b for b in self.positive_coroots() if _leq(alpha, b))

    def word_images(self, word: Sequence[int]) -> dict[Coroot, Coroot]:
        """Every positive coroot's image under the word."""
        return {beta: self.apply_word(word, beta) for beta in self.positive_coroots()}

    def inversion_set(self, word: Sequence[int]) -> frozenset[Coroot]:
        """Positive coroots sent negative by the word (independent of any
        reduced expression bookkeeping)."""
        return _inverted(self.word_images(word))


def _inverted(images: dict[Coroot, Coroot]) -> frozenset[Coroot]:
    return frozenset(beta for beta, img in images.items() if _is_negative(img))


_SYSTEMS: dict[DynkinDiagram, CorootSystem] = {}


def coroot_system(diagram: DynkinDiagram) -> CorootSystem:
    """The coroot system of a diagram, built once and shared."""
    if diagram not in _SYSTEMS:
        _SYSTEMS[diagram] = CorootSystem(diagram)
    return _SYSTEMS[diagram]


def simple_reflection(diagram: DynkinDiagram, i: int, beta: Coroot) -> Coroot:
    return coroot_system(diagram).reflect(i, beta)


def positive_coroots(diagram: DynkinDiagram) -> tuple[Coroot, ...]:
    return coroot_system(diagram).positive_coroots()


def highest_coroot(diagram: DynkinDiagram) -> Coroot:
    return coroot_system(diagram).highest_coroot()


def coroot_filter(diagram: DynkinDiagram, j: int) -> tuple[Coroot, ...]:
    return coroot_system(diagram).filter_at(j)


def heap_to_word(p: ColoredPoset, x: int) -> ReducedWord:
    """
    A reduced word for the Weyl group element of the principal filter of x.

    Letters are Kac node numbers read along an increasing linear extension of
    the filter, so the word ends with the maximal element's node.  The word is
    applied rightmost letter first.
    """
    system = coroot_system(p.diagram)
    numbering = system.type.numbering_map
    extension = first_linear_extension(p, within=p.up_set(x))
    return tuple(numbering[p.color(z)] for z in extension)


def inversion_sequence(diagram: DynkinDiagram, word: Sequence[int]) -> list[Coroot]:
    """
    The coroot sequence of the word: entry t is the image of the t-th letter's
    simple coroot (counting from the right) under the t-1 letters right of it.

    For a reduced word these are exactly the word's inversions; a repeat or a
    negative entry witnesses non-reducedness and raises NotReduced.
    """
    system = coroot_system(diagram)
    out: list[Coroot] = []
    prefix: list[int] = []  # letters i_1 .. i_{t-1}, leftmost acting last
    for i in reversed(word):
        beta = system.apply_word(prefix, system.simple(i))
        if not _is_positive(beta):
            raise NotReduced(f"letter {i} produces a non-positive coroot {beta}")
        if beta in out:
            raise NotReduced(f"letter {i} repeats the coroot {beta}")
        out.append(beta)
        prefix.append(i)
    return out


@dataclass(frozen=True)
class PsiRealization:
    """The coroot realization of a minuscule poset."""

    poset: ColoredPoset
    j: int
    assignment: dict[int, Coroot]  # element -> its coroot
    coroot_poset: ColoredPoset  # the colored filter above alpha_j
    coroot_ids: dict[Coroot, int]  # coroot -> element id in coroot_poset
    words: dict[int, ReducedWord]

    def coloring_of(self, beta: Coroot):
        return self.coroot_poset.color(self.coroot_ids[beta])


def coroot_poset(diagram: DynkinDiagram, j: int, coloring: dict[Coroot, object]) -> tuple[ColoredPoset, dict[Coroot, int]]:
    """The filter above alpha_j as a colored poset under the coroot order.

    A cover of the root poset adds one simple coroot, and a filter holds every
    chain between two of its members, so the covers are the steps
    beta -> beta + alpha_i that stay in the filter."""
    members = coroot_filter(diagram, j)
    ids = {beta: i + 1 for i, beta in enumerate(members)}
    covers = [
        (ids[beta], ids[step])
        for beta in members
        for i in range(len(beta))
        if (step := beta[:i] + (beta[i] + 1,) + beta[i + 1 :]) in ids
    ]
    poset_coloring = {ids[beta]: coloring[beta] for beta in members}
    return ColoredPoset(diagram, poset_coloring, covers), ids


def psi(p: ColoredPoset) -> PsiRealization:
    """
    Map every element of a connected finite minuscule poset to a coroot and
    verify that the map is a color-preserving dual isomorphism onto the filter
    of positive coroots above the maximal element's simple coroot.

    Raises NotMinusculeInput or NotFiniteType when the hypotheses fail, and
    AssertionError if any verified property breaks (they hold for every valid
    input; a failure means a convention or construction bug).
    """
    ok, _ = is_minuscule(p)
    if not ok:
        raise NotMinusculeInput("coroot realization needs a minuscule poset")
    maxima = p.maximal_elements()
    if len(maxima) != 1:
        raise NotMinusculeInput("coroot realization needs a connected poset")
    system = coroot_system(p.diagram)
    numbering = system.type.numbering_map
    j = numbering[p.color(maxima[0])]

    filt = set(coroot_filter(p.diagram, j))
    outside = [b for b in system.positive_coroots() if b not in filt]
    words: dict[int, ReducedWord] = {}
    assignment: dict[int, Coroot] = {}
    for x in p.elements:
        word = heap_to_word(p, x)
        seq = inversion_sequence(p.diagram, word)
        words[x] = word
        assignment[x] = seq[-1]
        images = system.word_images(word)
        assert frozenset(seq) == _inverted(images), "inversion sequence mismatch"
        # membership certificate for the parabolic quotient: everything outside
        # the filter stays positive under each element's word
        assert all(_is_positive(images[b]) for b in outside), "word moves an outside coroot negative"

    image = set(assignment.values())
    assert image == filt, "image is not the coroot filter"
    assert len(image) == len(p.elements), "coroot assignment is not injective"

    for x, y in itertools.combinations(p.elements, 2):
        fwd = p.leq(x, y)
        bwd = p.leq(y, x)
        assert fwd == _leq(assignment[y], assignment[x]), "psi not order reversing"
        assert bwd == _leq(assignment[x], assignment[y]), "psi not order reversing"

    coloring = {assignment[x]: p.color(x) for x in p.elements}
    cposet, ids = coroot_poset(p.diagram, j, coloring)
    ok, _ = is_minuscule(cposet)
    assert ok, "colored coroot filter is not minuscule"
    return PsiRealization(p, j, assignment, cposet, ids, words)
