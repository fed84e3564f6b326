"""
Coroot realization of connected finite colored minuscule posets.

Coroots are integer coordinate vectors over the simple coroots, indexed by
the Kac node numbering.  The simple reflection for node i acts by

    s_i(beta) = beta - (sum_j theta[i][j] * beta[j]) * alpha_i

where theta is the diagram's pairing matrix read in numbered order.  Words of
simple reflections act with the rightmost letter first.

For a minuscule poset P with maximal color j, read downward along one linear
extension t_1 (the top), t_2, ...: the realization is
psi(t_k) = s_{t_1} ... s_{t_{k-1}}(alpha_{c(t_k)}), the inversion sequence of
the whole poset's reduced word.  It maps P onto the filter of positive coroots
above alpha_j, and transporting the coloring along it yields a colored
minuscule poset of coroots dual isomorphic to P.  Its covers are the steps
beta -> beta + alpha_i inside the filter.

Each diagram's `CorootSystem` is built once (`coroot_system`) and shared by
the command line and `psi`; it computes its positive coroots once, by raising
steps from the simple coroots, and a reflection reads only the nonzero entries
of its row.
"""

from __future__ import annotations

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


def _display_key(beta: Coroot) -> tuple:
    """Height first; ties broken toward low-index support."""
    return (sum(beta), tuple(-v for v in beta))


def _is_positive(beta: Coroot) -> bool:
    return any(beta) and all(v >= 0 for v in beta)


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
        """Closure of the simple coroots under height-raising reflections,
        sorted by height then coordinates; computed once per system.

        s_i permutes the positive coroots other than alpha_i, and every
        non-simple positive coroot is lowered by some s_i to a positive one,
        so raising steps from the simple coroots reach them all.  A reflection
        changes only coordinate i - 1, which is all the raising test reads."""
        if self._positive is not None:
            return self._positive
        found = {self.simple(i) for i in range(1, self.n + 1)}
        frontier = set(found)
        while frontier:
            nxt = set()
            for beta in frontier:
                for i in range(1, self.n + 1):
                    img = self.reflect(i, beta)
                    if img[i - 1] > beta[i - 1] and img not in found:
                        found.add(img)
                        nxt.add(img)
            frontier = nxt
        self._positive = tuple(sorted(found, key=_display_key))
        return self._positive

    def highest_coroot(self) -> Coroot:
        return max(self.positive_coroots(), key=sum)

    def filter_at(self, j: int) -> tuple[Coroot, ...]:
        """Positive coroots above the simple coroot of node j."""
        alpha = self.simple(j)
        return tuple(b for b in self.positive_coroots() if _leq(alpha, b))


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


def _word(p: ColoredPoset, extension: Sequence[int]) -> ReducedWord:
    """The Kac node numbers of the colors along an increasing extension."""
    numbering = coroot_system(p.diagram).type.numbering_map
    return tuple(numbering[p.color(z)] for z in extension)


def heap_to_word(p: ColoredPoset, x: int) -> ReducedWord:
    """
    A reduced word for the Weyl group element of the principal filter of x.

    Letters are Kac node numbers read along an increasing linear extension of
    the filter, so the word ends with the maximal element's node.  The word is
    applied rightmost letter first.
    """
    return _word(p, first_linear_extension(p, within=p.up_set(x)))


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

    The word w of one increasing linear extension is read once: its inversion
    sequence, counted from the top, assigns each element its coroot.  Checked
    on every call: w is reduced (`inversion_sequence`), the image is the
    filter, the map is injective, it maps the covers, reversed, onto the
    covers of the coroot filter (so it is a dual isomorphism), each coroot
    outside the filter stays positive under w, and the colored coroot filter
    is minuscule.

    No element's own word needs a check.  Its up-set is a filter, so some
    linear extension, read downward, lists it first; that extension's word is
    w up to commuting letters (equal and adjacent colors are comparable), and
    the up-set's word is a length-additive right factor of it.  So the
    up-set's inversion set lies inside inv(w), which is the filter.

    Raises NotMinusculeInput or NotFiniteType when the hypotheses fail, and
    AssertionError if any verified property breaks (they hold for every valid
    input; a failure means a convention or construction bug).
    """
    ok, _ = is_minuscule(p)
    if not ok:
        raise NotMinusculeInput("coroot realization needs a minuscule poset")
    if len(p.maximal_elements()) != 1:
        raise NotMinusculeInput("coroot realization needs a connected poset")
    system = coroot_system(p.diagram)
    order = first_linear_extension(p)
    word = _word(p, order)
    j = word[-1]  # an increasing extension ends at the top
    assignment = dict(zip(reversed(order), inversion_sequence(p.diagram, word)))

    filt = set(coroot_filter(p.diagram, j))
    image = set(assignment.values())
    assert image == filt, "image is not the coroot filter"
    assert len(image) == len(p.elements), "coroot assignment is not injective"
    # membership certificate for the parabolic quotient: everything outside
    # the filter stays positive under the word
    assert all(
        _is_positive(system.apply_word(word, b)) for b in system.positive_coroots() if b not in filt
    ), "word moves an outside coroot negative"

    coloring = {assignment[x]: p.color(x) for x in p.elements}
    cposet, ids = coroot_poset(p.diagram, j, coloring)
    # a bijection that maps the covers, reversed, onto the covers is a dual
    # isomorphism: both orders are the transitive closures of their covers
    reversed_covers = {(ids[assignment[y]], ids[assignment[x]]) for x, y in p.covers}
    assert reversed_covers == cposet.covers, "psi not order reversing"
    ok, _ = is_minuscule(cposet)
    assert ok, "colored coroot filter is not minuscule"
    return PsiRealization(p, j, assignment, cposet, ids)
