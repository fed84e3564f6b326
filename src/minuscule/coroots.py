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
steps from the simple coroots, and each filter once per j; a reflection reads
only the nonzero entries of its row.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

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


class CorootSystem:
    """The coroot lattice of a connected finite-type diagram, in Kac numbering."""

    def __init__(self, diagram: DynkinDiagram):
        ft = recognize_finite_type(diagram)
        if ft is None:
            raise NotFiniteType("diagram does not have finite Lie type")
        self.diagram = diagram
        self.type: FiniteTypeId = ft
        self.n = ft.rank
        # the nonzero entries of each row of theta in Kac order, 0-based, by node
        rows = diagram.numbered_rows(ft.numbering_map)
        self._row_support: list[list[tuple[int, int]]] = [
            sorted([(i - 1, 2)] + [(k - 1, v) for k, v in rows[i]]) for i in range(1, self.n + 1)
        ]
        self._positive: Optional[tuple[Coroot, ...]] = None
        self._filters: dict[int, tuple[Coroot, ...]] = {}

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
        """Positive coroots above alpha_j (coordinate j nonzero); computed once per j."""
        if j not in self._filters:
            self._filters[j] = tuple(b for b in self.positive_coroots() if b[j - 1])
        return self._filters[j]


_SYSTEMS: dict[DynkinDiagram, CorootSystem] = {}


def coroot_system(diagram: DynkinDiagram) -> CorootSystem:
    """The coroot system of a diagram, built once and shared."""
    if diagram not in _SYSTEMS:
        _SYSTEMS[diagram] = CorootSystem(diagram)
    return _SYSTEMS[diagram]


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

    The product v of the letters read so far is kept as its columns v(alpha_k):
    as s_i(alpha_k) = alpha_k - theta[i][k] alpha_i, letter i reads column i as
    its entry, subtracts theta[i][k] times it from each neighbour column k and
    negates column i, turning v into v s_i.  NotReduced is raised at the first
    entry that is not positive, with no check for repeats: l(v s_i) > l(v)
    exactly when v(alpha_i) > 0, so all-positive entries make the word reduced,
    and a reduced word's entries are its distinct inversions.
    """
    system = coroot_system(diagram)
    cols = [list(system.simple(k)) for k in range(1, system.n + 1)]
    out: list[Coroot] = []
    for i in reversed(word):
        if not 1 <= i <= system.n:
            raise NotReduced(f"letter {i} is not a node of {system.type}")
        col = cols[i - 1]
        beta = tuple(col)
        if not _is_positive(beta):
            raise NotReduced(f"letter {i} produces a non-positive coroot {beta}")
        out.append(beta)
        for k, t in system._row_support[i - 1]:
            if k != i - 1:
                cols[k] = [a - t * b for a, b in zip(cols[k], col)]
        cols[i - 1] = [-b for b in col]
    return out


class PsiRealization(NamedTuple):
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
    on every call: the input is minuscule and connected, w is reduced
    (`inversion_sequence`), the image is the filter, and the map sends the
    covers, reversed, onto the covers of the coroot filter.  The rest follows:

    - The map is injective: a reduced word's entries are distinct.
    - No coroot outside the filter goes negative under w: a reduced word's
      entries are exactly {beta > 0 : w beta < 0}, and they are the filter.
    - The colored coroot filter is minuscule.  The map is a dual isomorphism
      (both orders are the transitive closures of their covers), so the
      filter is the colored order dual of the minuscule input; and EC, NA,
      AC and ICE2 are self-dual, while UCB1 and LCB1 swap.

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
    order = first_linear_extension(p)
    word = _word(p, order)
    j = word[-1]  # an increasing extension ends at the top
    assignment = dict(zip(reversed(order), inversion_sequence(p.diagram, word)))
    image = set(assignment.values())
    assert image == set(coroot_filter(p.diagram, j)), "image is not the coroot filter"

    coloring = {assignment[x]: p.color(x) for x in p.elements}
    cposet, ids = coroot_poset(p.diagram, j, coloring)
    reversed_covers = {(ids[assignment[y]], ids[assignment[x]]) for x, y in p.covers}
    assert reversed_covers == cposet.covers, "psi not order reversing"
    return PsiRealization(p, j, assignment, cposet, ids)
