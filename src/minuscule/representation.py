"""
Raising/lowering/diagonal operators on the span of filter-ideal splits.

A split is a partition of the poset into an upward-closed filter F and the
complementary ideal I.  For each color the raising operator moves a minimal
element of F into the ideal, the lowering operator moves a maximal element of
I into the filter, and the diagonal operator has eigenvalue -1, +1 or 0
according to whether the color marks a minimal element of F, a maximal
element of I, or neither.  All arithmetic is exact integer arithmetic.

The split basis is enumerated once, as ideal bitmasks, by a walk over the
covers of the lattice of ideals, and the basis keeps every cover it visits;
`SplitBasis.ideals` reads every ideal off them.  Under EC each color class is
a chain and X_a e_s = e_t exactly where the ideal t covers the ideal s by an
added a-element, so a raising or lowering operator sends a basis vector to at
most one basis vector: it is stored as a partial map on split indices, read
off the covers (the lowering map is the inverse of the raising one, so Y_a is
the transpose of X_a), and the diagonal operator as a vector.  The generator
relations are decided from the covers and these maps with no matrix products
(see `verify_relations`).  HH, the eigenvalue range and XY with a != b hold
by construction.  Three more hold by the order: a depth-1 bracket whose two
color classes share no cover, XY with a = b where no element of color a
covers another, and a bracket of depth d >= 2 where no d - 1 consecutive gaps
of the a-chain (the open intervals between its consecutive elements) hold
between them at most one element, of color b; on a poset with ICE2 that is
every such bracket.  HX is one comparison of packed weights along each
color's covers, and the other brackets sum their X words' weights.  HY and
YY are minus the transpose of HX and a signed transpose of XX, so each is
read off its X partner's failures: its least failing index is the least
target they land on, and no Y word is evaluated.  The report keeps one row
per check.  The matrix export reads each operator's coordinate list off the
maps in row order (`OperatorMaps.coordinates`), and `IntMatrix` wraps those
lists.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Sequence
from math import comb
from typing import NamedTuple, Optional

from .axioms import check
from .dynkin import Color
from .poset import ColoredPoset, bits

__all__ = [
    "Split",
    "SplitBasis",
    "OperatorMaps",
    "IntMatrix",
    "RelationCheck",
    "RelationReport",
    "ECViolated",
    "splits",
    "operator_maps",
    "build_operators",
    "verify_relations",
]


class ECViolated(ValueError):
    pass


class Split(NamedTuple):
    """A filter/ideal partition of the element set."""

    filter: frozenset[int]
    ideal: frozenset[int]


class SplitBasis(Sequence):
    """
    The splits of a poset in canonical order (ideal size, then ideal
    contents), held as ideal bitmasks; indexing yields `Split` objects.

    `bit[x]` is element x's bit.  The k-th smallest of n ids owns bit n-1-k,
    so among ideals of one size the canonical order is descending mask order.
    `covers[x]` is a pair of equal-length lists of split indices, sources and
    targets: the ideal targets[i] covers the ideal sources[i] by adding x.
    The constructor takes the targets as masks.
    """

    def __init__(
        self, bit: dict[int, int], masks: list[int], covers: dict[int, tuple[list[int], list[int]]]
    ):
        self.elements = frozenset(bit)
        self.bit = bit
        self.masks = masks
        index = {m: i for i, m in enumerate(masks)}.__getitem__
        self.covers = {
            x: (sources, list(map(index, targets))) for x, (sources, targets) in covers.items()
        }

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int) -> Split:
        m = self.masks[i]
        ideal = frozenset(x for x, b in self.bit.items() if m & b)
        return Split(self.elements - ideal, ideal)

    def ideals(self) -> list[list[int]]:
        """The ids in the ideal of every split, ascending, each read off one
        cover into it: the ideal it covers, with the added id inserted.  A
        covered ideal is smaller, so it comes first in canonical order."""
        into: dict[int, tuple[int, int]] = {}
        for x, (sources, targets) in self.covers.items():
            into.update(zip(targets, zip(sources, itertools.repeat(x))))
        out: list[list[int]] = [[]]
        for t in range(1, len(self.masks)):
            s, x = into[t]
            ideal = out[s][:]
            bisect.insort(ideal, x)
            out.append(ideal)
        return out


def splits(p: ColoredPoset) -> SplitBasis:
    """
    All splits, in canonical order (ideal size, then ideal contents), with
    every cover of the lattice of ideals.

    The lattice is walked by its covers, one ideal size at a time.  Each
    ideal carries its addable mask: the elements of its filter whose lower
    covers all lie in it.  Adding an element b takes b out of that mask and
    puts in those upper covers of b whose lower covers are then all in the
    ideal, so an ideal costs one step per cover, not one test per element.
    """
    n = len(p.elements)
    # per bit r: the lower covers of its element as a mask of bits, and its
    # upper covers as (bit, lower covers) pairs
    below = [0] * n
    for k, m in enumerate(p.lower_cover_masks):
        for j in bits(m):
            below[n - 1 - k] |= 1 << (n - 1 - j)
    above = [
        [(1 << (n - 1 - j), below[n - 1 - j]) for j in bits(m)] for m in reversed(p.cover_masks)
    ]
    sources: list[list[int]] = [[] for _ in range(n)]
    targets: list[list[int]] = [[] for _ in range(n)]
    masks = [0]
    level = [(0, sum(1 << r for r in range(n) if not below[r]))]
    s = 0
    while level:
        grown: dict[int, int] = {}
        for m, addable in level:
            rest = addable
            while rest:
                b = rest & -rest
                rest ^= b
                t = m | b
                r = b.bit_length() - 1
                sources[r].append(s)
                targets[r].append(t)
                if t not in grown:
                    after = addable ^ b
                    for u, need in above[r]:
                        if need & t == need:
                            after |= u
                    grown[t] = after
            s += 1
        level = sorted(grown.items(), reverse=True)
        masks.extend(m for m, _ in level)
    bit = {x: 1 << (n - 1 - k) for k, x in enumerate(p.elements)}
    covers = {x: (sources[r], targets[r]) for r, x in enumerate(reversed(p.elements))}
    return SplitBasis(bit, masks, covers)


class OperatorMaps(NamedTuple):
    """
    Each color's operators on a split basis: `up[a][s]` and `down[a][s]` are
    the indices of X_a e_s and Y_a e_s (-1 where the image is zero), and
    `h[a][s]` is the eigenvalue of e_s under H_a.
    """

    basis: SplitBasis
    up: dict[Color, list[int]]
    down: dict[Color, list[int]]
    h: dict[Color, list[int]]

    def coordinates(self, a: Color) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
        """
        X_a, Y_a and H_a as coordinate lists of [row, column, value], in row
        order.  Each row of X_a or Y_a holds at most one entry: row t of X_a
        holds e_t's preimage under X_a, which is Y_a e_t, and row s of Y_a
        holds X_a e_s.  So raising reads the lowering map, lowering reads the
        raising map, and the diagonal reads h.
        """
        return (
            [[t, s, 1] for t, s in enumerate(self.down[a]) if s >= 0],
            [[s, t, 1] for s, t in enumerate(self.up[a]) if t >= 0],
            [[s, s, v] for s, v in enumerate(self.h[a]) if v],
        )


def operator_maps(p: ColoredPoset, *, basis: Optional[SplitBasis] = None) -> OperatorMaps:
    """
    The operator maps of every color over the canonical split basis.  Requires
    EC so that the defining sums have at most one term per basis vector.

    X_a e_s = e_t exactly where the ideal t covers the ideal s by an added
    a-element: by EC the a-class is a chain and an ideal holds an initial
    segment of it, so only the next a-element can be added.  Lowering moves
    that element back, so Y_a is the inverse of X_a.
    """
    if not check(p, "EC").holds:
        raise ECViolated("equal-colored incomparable elements; operator sums are ambiguous")
    if basis is None:
        basis = splits(p)
    n = len(basis)
    up: dict[Color, list[int]] = {}
    down: dict[Color, list[int]] = {}
    h: dict[Color, list[int]] = {}
    for a in p.diagram.colors:
        ups, downs, hs = [-1] * n, [-1] * n, [0] * n
        for x in p.color_class(a):
            sources, targets = basis.covers[x]
            for s, t in zip(sources, targets):
                ups[s] = t
                downs[t] = s
            # h is +1 where only Y_a is defined and -1 wherever X_a is
            for t in targets:
                if not hs[t]:
                    hs[t] = 1
            for s in sources:
                hs[s] = -1
        up[a], down[a], h[a] = ups, downs, hs
    return OperatorMaps(basis, up, down, h)


class IntMatrix:
    """
    Sparse square matrix with exact integer entries, held as its coordinate
    list of [row, column, value] for the nonzero entries, in row order.
    """

    __slots__ = ("n", "coordinates")

    def __init__(self, n: int, coordinates: list[list[int]]):
        self.n = n
        self.coordinates = coordinates

    # products: the test oracles' commutators, counted by perfbench's tracer
    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        rows: dict[int, list[tuple[int, int]]] = {}
        for r, c, v in other.coordinates:
            rows.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], int] = {}
        for r, k, v in self.coordinates:
            for c, w in rows.get(k, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + v * w
        return IntMatrix(self.n, sorted([r, c, v] for (r, c), v in out.items() if v))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.n == other.n
            and self.coordinates == other.coordinates
        )

    __hash__ = None


def build_operators(
    p: ColoredPoset, *, maps: Optional[OperatorMaps] = None
) -> tuple[SplitBasis, dict[Color, tuple[IntMatrix, IntMatrix, IntMatrix]]]:
    """
    The (raising, lowering, diagonal) operator triple for every color, over
    the canonical split basis, as matrices wrapping `maps.coordinates`, from
    `maps` or `operator_maps(p)`.
    """
    if maps is None:
        maps = operator_maps(p)
    n = len(maps.basis)
    ops: dict[Color, tuple[IntMatrix, IntMatrix, IntMatrix]] = {}
    for a in p.diagram.colors:
        x, y, h = maps.coordinates(a)
        ops[a] = (IntMatrix(n, x), IntMatrix(n, y), IntMatrix(n, h))
    return maps.basis, ops


Row = tuple[str, Color, Color, Optional[int]]


class RelationCheck(NamedTuple):
    relation: str
    a: Color
    b: Color
    ok: bool
    failing_basis_index: Optional[int] = None


class RelationReport(NamedTuple):
    """
    Every relation check as one (relation, a, b, index) row, in check order:
    index is the least failing basis index, or None where the check holds.
    `checks` builds a `RelationCheck` per row each time it is read.
    """

    rows: tuple[Row, ...]
    eigenvalues_in_range: bool
    eigenvalue_witness: Optional[tuple[Color, int]] = None

    @property
    def checks(self) -> tuple[RelationCheck, ...]:
        return tuple(RelationCheck(r, a, b, s is None, s) for r, a, b, s in self.rows)

    @property
    def all_pass(self) -> bool:
        indices = [s for _, _, _, s in self.rows]
        return self.eigenvalues_in_range and indices.count(None) == len(indices)

    def failures(self) -> list[RelationCheck]:
        return [RelationCheck(r, a, b, False, s) for r, a, b, s in self.rows if s is not None]

    def to_json(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "eigenvalues_in_range": self.eigenvalues_in_range,
            "checks": [
                {"relation": r, "a": str(a), "b": str(b), "ok": True}
                if s is None
                else {"relation": r, "a": str(a), "b": str(b), "ok": False, "basis_index": s}
                for r, a, b, s in self.rows
            ],
        }


def _then(first: list[int], second: list[int]) -> list[int]:
    """The target list of the map `second` applied after the map `first`."""
    return [second[t] for t in first]


def _gaps(p: ColoredPoset) -> dict[Color, list[int]]:
    """The gaps of every color chain of an EC poset, bottom first, as masks:
    the open intervals between consecutive elements.  An element's place in
    its chain is the number of elements of its color below it."""
    up, down = p.up_masks, p.down_masks
    gaps: dict[Color, list[int]] = {}
    for a, m in p.class_masks.items():
        chain = [0] * m.bit_count()
        for i in bits(m):
            chain[(down[i] & m).bit_count()] = i
        gaps[a] = [up[i] & down[j] for i, j in zip(chain, chain[1:])]
    return gaps


def _crossable(gaps: list[int], b_class: int, length: int) -> bool:
    """Whether `length` consecutive gaps hold at most one element between
    them, of the class `b_class`: a window of that many gap costs, 0 for an
    empty gap, 1 for a single b-element and 2 otherwise, sums to at most 1.
    Linear in the number of gaps, whatever `length` is."""
    if length > len(gaps):
        return False
    costs = [0 if not g else 1 if not g & (g - 1) and g & b_class else 2 for g in gaps]
    total = sum(costs[:length])
    for new, old in zip(costs[length:], costs):
        if total <= 1:
            return True
        total += new - old
    return total <= 1


def _weight_failures(
    p: ColoredPoset, maps: OperatorMaps, a: Color, sources: list[int], targets: list[int]
) -> tuple[dict[Color, int], dict[Color, int]]:
    """The HX and HY relations of color a evaluated per b along the a-covers
    s -> t: for each b whose relation fails, the least source and the least
    target of a cover where h_b(t) - h_b(s) is not theta(a, b)."""
    hx: dict[Color, int] = {}
    hy: dict[Color, int] = {}
    for b in p.diagram.colors:
        v, hb = p.diagram.theta(a, b), maps.h[b]
        failing = [(s, t) for s, t in zip(sources, targets) if hb[t] - hb[s] != v]
        if failing:
            hx[b] = min(s for s, _ in failing)
            hy[b] = min(t for _, t in failing)
    return hx, hy


def verify_relations(
    p: ColoredPoset, *, full_sweep: bool = False, maps: Optional[OperatorMaps] = None
) -> RelationReport:
    """
    Exact verification of the generator relations on the split basis.

    The nested raising/lowering relations are verified at depth 1 - theta(b,a)
    for all adjacent-or-sampled distant pairs (every pair with full_sweep);
    the diagonal relations run over all pairs.  Also checks that diagonal
    eigenvalues lie in {-1, 0, 1}, reading `maps` or `operator_maps(p)`.  A
    failing check records the least basis index s where the relation is nonzero.

    Every word of a relation changes each color's count in the ideal by the
    same amounts, and under EC an ideal is fixed by these counts (it holds an
    initial segment of each color chain).  So every word sends e_s to one and
    the same basis vector or to zero, and each relation is decided by
    argument, along the covers `splits` keeps, or by lists built once per
    color, with no word evaluated term by term.  Write x for the least
    a-element of the filter F and y for the top b-element of the ideal I of
    split s: X_a moves only x into I, and Y_b only y out of it.  X_a e_s = e_t
    exactly along a cover s -> t of the lattice of ideals that adds an
    a-element.  The gaps of the a-chain are the open intervals between its
    consecutive elements.

    - HH and the eigenvalue range hold by construction: each H is diagonal,
      and `operator_maps` only writes h in {-1, 0, 1}.
    - HX for every b at once.  Along an a-cover s -> t the (a, b) relation
      sends e_s to (h_b(t) - h_b(s) - theta(a,b)) e_t.  Pack the eigenvalues
      of e_s into one int code[s], one digit per color, in radix
      1 + max(2, max|theta|), which exceeds the size of every digit of that
      mismatch, as the comment at the radix argues.  Then X_a
      satisfies all its (a, b) relations exactly when code[t] - code[s] is
      the packed row theta(a, .) on every a-cover.  The code is summed
      along the covers too: h_b is -1 on the sources of the b-covers and +1
      on their other targets.  Only a color whose packed check fails is
      evaluated per b, along the same covers.
    - HY is minus the transpose of HX.  `operator_maps` builds Y_a as the
      inverse map of X_a, so Y_a is the transpose of X_a, H_b is diagonal,
      and (H_b Y_a - Y_a H_b + theta Y_a)^T = -(H_b X_a - X_a H_b - theta X_a).
      So HY fails on the same a-covers as HX, and its least failing index is
      the least target t of one of them.
    - XY with a != b holds on every EC poset.  Y_b moves only y and X_a only
      x, and a != b, so X_a Y_b e_s and Y_b X_a e_s are both nonzero exactly
      when the lower covers of x lie in I, the upper covers of y lie in F,
      and y is not covered by x; both words then land on the split of the
      ideal I - y + x.
    - XY with a = b.  X_a Y_a e_s = e_s wherever Y_a e_s is nonzero, and
      Y_a X_a e_s = e_s wherever X_a e_s is nonzero (each moves one chain
      element out and back), so the relation sends e_s to
      ([Y_a e_s != 0] - [X_a e_s != 0] - h_a(s)) e_s.  By the rule for h this
      is nonzero exactly where both X_a e_s and Y_a e_s are.  That needs the
      top a-element y of I maximal in I and x minimal in F, with y < x in the
      a-chain; so it holds when no a-element covers another, that is, when
      no gap of the a-chain is empty: an element strictly between y and x
      lies in I above y or in F below x.  Only a color with such a cover is
      evaluated, over the sources of its covers.
    - XX at depth 1 holds when no cover joins an a-element and a b-element.
      With x the least a-element and z the least b-element of F (a != b,
      so moving one does not change the other), X_a X_b e_s and X_b X_a e_s
      both land on the split of I + x + z where nonzero.  If X_a X_b e_s is
      nonzero and X_b X_a e_s is zero, then x's lower covers lie in I + z but
      not in I, so z is covered by x; the other way round, x is covered by
      z.  Only pairs joined by a cover are evaluated.
    - XX at depth d >= 2 holds unless some d - 1 consecutive gaps of the
      a-chain hold at most one element between them, of color b.  An X_b
      with b != a moves no a-element, and each X_a moves the next element of
      the a-chain, so a word nonzero on e_s adds d consecutive a-elements and
      one b-element.  The elements of the gap between two of those
      a-elements lie above the lower one and below the upper one, so they
      enter the ideal after the lower one and before the upper one: each of
      the d - 1 gaps between the word's a-elements is empty or is that one
      b-element.  The gaps are scanned once, so a bracket deeper than its
      class is long (fewer gaps than d - 1) holds, and a pairing as large as
      theta(b,a) = -10**20 costs nothing.  On a poset with ICE2 every
      bracket of depth 2 or more holds this way.  Each gap has census 2, so
      none is empty.  At depth 2 the one gap would be a single b-element,
      of census -theta(b,a) = 1, and a deeper bracket needs a run of two or
      more gaps, one of them empty.
    - XX where neither rule decides it is a weighted sum: the binomial
      coefficients of the words nonzero on e_s, which by the argument above
      all land on one basis vector, must sum to zero.  YY at depth d is
      (-1)^d times the transpose of XX: transposing turns the word
      Y_a^(d-k) Y_b Y_a^k into X_a^k X_b X_a^(d-k), the word of index d - k.
      So YY holds exactly when XX does, and its least failing index is the
      least nonzero row of XX: the least basis vector that XX's failing
      words land on.  Only X words are evaluated.
    """
    if maps is None:
        maps = operator_maps(p)
    n = len(maps.basis)
    d, colors = p.diagram, p.diagram.colors
    classes = p.class_masks
    rows: list[Row] = []

    # joined: the color pairs (a, b) with a cover between an a-element and a
    # b-element, either way round
    coloring = p.coloring
    joined = {(coloring[x], coloring[y]) for x, y in p.covers}
    joined |= {(b, a) for a, b in joined}

    gaps = _gaps(p)

    # moves[a] is where X_a sends every index, with index n standing for zero,
    # and powers[a][k - 1] the target list of X_a^k
    moves: dict[Color, list[int]] = {}
    powers: dict[Color, list[list[int]]] = {}

    def move(a: Color) -> list[int]:
        z = moves.get(a)
        if z is None:
            z = moves[a] = [n if t < 0 else t for t in maps.up[a]] + [n]
        return z

    def power(a: Color, k: int) -> list[int]:
        """The target list of X_a^k, k >= 1, cached per color."""
        z = move(a)
        known = powers.setdefault(a, [z])
        while len(known) < k:
            known.append(_then(known[-1], z))
        return known[k - 1]

    def bracket(a: Color, b: Color, depth: int) -> tuple[Optional[int], Optional[int]]:
        """The least failing indices of XX and YY, from the words of
        ad(X_a)^depth (X_b) = sum over k of (-1)^k C(depth, k) X_a^(depth-k) X_b X_a^k."""
        xb = move(b)
        words = []
        for k in range(depth + 1):
            targets = xb if k == 0 else _then(power(a, k), xb)
            words.append(targets if k == depth else _then(targets, power(a, depth - k)))
        weights = [(-1) ** k * comb(depth, k) for k in range(depth + 1)]
        # the words nonzero on e_s share one target, the least entry of ts
        failing = [
            (s, min(ts))
            for s, ts in enumerate(zip(*words))
            if sum(c for c, t in zip(weights, ts) if t < n)
        ]
        if not failing:
            return None, None
        return failing[0][0], min(t for _, t in failing)

    # (a, b, depth) in check order: adjacent pairs, or every pair with
    # full_sweep, then one distant pair per color, which keeps the depth-1
    # commutation covered
    pairs: list[tuple[Color, Color, int]] = []
    for a in colors:
        for b in (colors if full_sweep else d.neighbors(a)):
            if b != a:
                pairs.append((a, b, 1 - d.theta(b, a)))
    if not full_sweep:
        # the first distant color comes within degree + 2 steps of the scan
        for a in colors:
            b = next((b for b in colors if d.distant(a, b)), None)
            if b is not None:
                pairs.append((a, b, 1))

    for a, b, depth in pairs:
        if depth == 1:
            decided = (a, b) not in joined
        else:
            decided = not _crossable(gaps[a], classes[b], depth - 1)
        xx, yy = (None, None) if decided else bracket(a, b, depth)
        rows += (("XX", a, b, xx), ("YY", a, b, yy))

    # covers[a]: the sources and targets of the a-covers, X_a e_s = e_t
    covers: dict[Color, tuple[list[int], list[int]]] = {a: ([], []) for a in colors}
    for x, (s, t) in maps.basis.covers.items():
        sources, targets = covers[coloring[x]]
        sources += s
        targets += t

    # code[s] packs h_b(s) for every b, the last color in the lowest digit:
    # h_b is -1 on the sources of the b-covers, and +1 on their targets
    # where X_b is not defined.  Along an a-cover s -> t, b's digit of
    # code[t] - code[s] - shift is h_b(t) - h_b(s) - theta(a, b): -2 or 0 for
    # b = a, as h_a(s) = -1 and h_a(t) = +-1.  For b != a, a b-element
    # addable at s is addable at t, and one maximal in t is maximal in s, so
    # h_b cannot rise and the digit lies in [-2, m], m the largest -theta.
    # Digits smaller in size than the radix sum to zero only when all are zero
    radix = 1 + max([2] + [-v for a in colors for _, v in d.pairings(a)])
    code = [0] * n
    digit = radix ** len(colors)
    place: dict[Color, int] = {}
    for b in colors:
        digit //= radix
        place[b] = digit
        raises = maps.up[b]
        sources, targets = covers[b]
        for s in sources:
            code[s] -= digit
        for t in targets:
            if raises[t] < 0:
                code[t] += digit

    for a in colors:
        sources, targets = covers[a]
        # the packed row theta(a, .), from its diagonal entry and its pairings
        shift = 2 * place[a] + sum(v * place[b] for b, v in d.pairings(a))
        held = [code[t] for t in targets] == [code[s] + shift for s in sources]
        hx, hy = ({}, {}) if held else _weight_failures(p, maps, a, sources, targets)
        both = None
        if (a, a) in joined:
            lowers = maps.down[a]
            both = min((s for s in sources if lowers[s] >= 0), default=None)
        for b in colors:
            rows += (
                ("HH", a, b, None),
                ("HX", a, b, hx.get(b)),
                ("HY", a, b, hy.get(b)),
                ("XY", a, b, both if a == b else None),
            )

    return RelationReport(tuple(rows), True)
