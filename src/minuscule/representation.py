"""
Raising/lowering/diagonal operators on the span of filter-ideal splits.

A split is a partition of the poset into an upward-closed filter F and the
complementary ideal I.  For each color the raising operator moves a minimal
element of F into the ideal, the lowering operator moves a maximal element of
I into the filter, and the diagonal operator has eigenvalue -1, +1 or 0
according to whether the color marks a minimal element of F, a maximal
element of I, or neither.  All arithmetic is exact integer arithmetic.

The split basis is enumerated once, as ideal bitmasks, by a walk over the
covers of the lattice of ideals, and the basis keeps every cover it visits.
Under EC each color class is a chain and X_a e_s = e_t exactly where the ideal
t covers the ideal s by an added a-element, so a raising or lowering operator
sends a basis vector to at most one basis vector: it is stored as a partial
map on split indices, read off the covers (the lowering map is the inverse of
the raising one, so Y_a is the transpose of X_a), and the diagonal operator
as a vector.  The generator relations are decided from these maps with no
matrix products and no word evaluated term by term except the brackets of
depth 3 or more (see `verify_relations`).  HH, the eigenvalue range, XY with
a != b and the brackets deeper than their color class hold by construction.
Two more hold by the covers: a depth-1 bracket whose two color classes share
no cover, and XY with a = b where no element of color a covers another.  HX
is one comparison of packed weights per color, and the other brackets of
depth 1 and 2 are equalities of target lists.  HY and YY are minus the
transpose of HX and a signed transpose of XX, so they are evaluated only
where their X partner fails, for their own least failing index.  The matrix
export reads each operator's coordinate list off the maps in row order
(`OperatorMaps.coordinates`), and `IntMatrix` wraps those lists.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
from typing import Optional

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


@dataclass(frozen=True)
class Split:
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
        self.position = {m: i for i, m in enumerate(masks)}
        index = self.position.__getitem__
        self.covers = {
            x: (sources, list(map(index, targets))) for x, (sources, targets) in covers.items()
        }
        self._owners = sorted(bit, reverse=True)  # the id owning bit r

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int) -> Split:
        ideal = frozenset(self.ideal(i))
        return Split(self.elements - ideal, ideal)

    def ideal(self, i: int) -> list[int]:
        """The ids in the ideal of split i, ascending, read off its set bits."""
        owners = self._owners
        return [owners[r] for r in bits(self.masks[i])][::-1]


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


@dataclass(frozen=True)
class OperatorMaps:
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
        ups, downs = [-1] * n, [-1] * n
        for x in p.color_class(a):
            for s, t in zip(*basis.covers[x]):
                ups[s] = t
                downs[t] = s
        up[a], down[a] = ups, downs
        h[a] = [-1 if u >= 0 else 1 if d >= 0 else 0 for u, d in zip(ups, downs)]
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


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    a: Color
    b: Color
    ok: bool
    failing_basis_index: Optional[int] = None

    def to_json(self) -> dict:
        out: dict = {
            "relation": self.relation,
            "a": str(self.a),
            "b": str(self.b),
            "ok": self.ok,
        }
        if self.failing_basis_index is not None:
            out["basis_index"] = self.failing_basis_index
        return out


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]
    eigenvalues_in_range: bool
    eigenvalue_witness: Optional[tuple[Color, int]] = None

    @property
    def all_pass(self) -> bool:
        return self.eigenvalues_in_range and all(c.ok for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.ok]

    def to_json(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "eigenvalues_in_range": self.eigenvalues_in_range,
            "checks": [c.to_json() for c in self.checks],
        }


def _then(first: list[int], second: list[int]) -> list[int]:
    """The target list of the map `second` applied after the map `first`."""
    return [second[t] for t in first]


def _first_difference(x: list[int], y: list[int]) -> Optional[int]:
    """The least index at which two lists of equal length differ, or None."""
    if x == y:
        return None
    return next(s for s, (u, v) in enumerate(zip(x, y)) if u != v)


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
    the same basis vector or to zero, and each relation is decided by lists
    built once per color, with no word evaluated term by term.  Write x for
    the least a-element of the filter F and y for the top b-element of the
    ideal I of split s: X_a moves only x into I, and Y_b only y out of it.

    - HH and the eigenvalue range hold by construction: each H is diagonal,
      and `operator_maps` only writes h in {-1, 0, 1}.
    - HX for every b at once.  Where X_a e_s = e_t, the (a, b) relation
      sends e_s to (h_b(t) - h_b(s) - theta(a,b)) e_t.  Pack the eigenvalues
      of e_s into one int code[s], one digit per color, in radix
      max|theta| + 3, which exceeds every digit of that mismatch.  Then X_a
      satisfies all its (a, b) relations exactly when code[t] - code[s] is
      the packed row theta(a, .) over the domain of X_a.  Only a color whose
      packed check fails is evaluated per b.
    - HY is minus the transpose of HX.  `operator_maps` builds Y_a as the
      inverse map of X_a, so Y_a is the transpose of X_a, H_b is diagonal,
      and (H_b Y_a - Y_a H_b + theta Y_a)^T = -(H_b X_a - X_a H_b - theta X_a).
      So HY fails exactly where HX does, and is evaluated, along Y_a with the
      row negated, only then, for its own least failing index.
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
      a-chain; so it holds when no a-element covers another: an element
      strictly between y and x lies in I above y or in F below x.  Only a
      color with such a cover is evaluated.
    - XX at depth 1 or 2.  Every word has coefficient 1 or 0 on e_s, so
      x - y vanishes exactly where both words send e_s to the same place,
      and x - 2y + z exactly where all three do.  The relation holds exactly
      when the words' target lists are equal, index n standing for zero, and
      the first index where two lists differ is the failing one.
    - XX at depth 1 holds when no cover joins an a-element and a b-element.
      With x the least a-element and z the least b-element of F (a != b,
      so moving one does not change the other), X_a X_b e_s and X_b X_a e_s
      both land on the split of I + x + z where nonzero.  If X_a X_b e_s is
      nonzero and X_b X_a e_s is zero, then x's lower covers lie in I + z but
      not in I, so z is covered by x; the other way round, x is covered by
      z.  Only pairs joined by a cover are evaluated.
    - XX deeper than the a-class is long holds by construction.  Each word
      has `depth` letters X_a, and an X_b with b != a moves no a-element, so
      each X_a must move one more element of the a-chain than the last: no
      word is nonzero.  No target list is built for such a bracket, so a
      pairing as large as theta(b,a) = -10**20 costs nothing.
    - XX at depth 3 or more keeps the weighted sum: the binomial
      coefficients of the words nonzero on e_s, which by the argument above
      all land on one basis vector, must sum to zero.
    - YY at depth d is (-1)^d times the transpose of XX: transposing turns
      the word Y_a^(d-k) Y_b Y_a^k into X_a^k X_b X_a^(d-k), the word of
      index d - k.  So YY holds exactly when XX does.  Its least failing
      index is the least nonzero row of XX, so where XX fails, YY is
      evaluated by the rules above along the Y target lists, which are built
      only then.
    """
    if maps is None:
        maps = operator_maps(p)
    n = len(maps.basis)
    colors = p.diagram.colors
    theta = p.diagram.theta
    classes = p.class_masks
    checks: list[RelationCheck] = []

    def record(relation: str, a: Color, b: Color, s: Optional[int]) -> None:
        checks.append(RelationCheck(relation, a, b, s is None, s))

    # linked[a]: the elements that cover an a-element or are covered by one
    linked: dict[Color, int] = {}
    for a, m in classes.items():
        joined = 0
        for i in bits(m):
            joined |= p.cover_masks[i] | p.lower_cover_masks[i]
        linked[a] = joined

    # moves[letter, a] is where Z_a sends every index, with index n standing
    # for zero, and powers[letter, a][k - 1] the target list of Z_a^k
    moves: dict[tuple[str, Color], list[int]] = {}
    powers: dict[tuple[str, Color], list[list[int]]] = {}

    def move(letter: str, a: Color) -> list[int]:
        z = moves.get((letter, a))
        if z is None:
            targets = maps.up[a] if letter == "X" else maps.down[a]
            z = moves[letter, a] = [n if t < 0 else t for t in targets] + [n]
        return z

    def power(letter: str, a: Color, k: int) -> list[int]:
        """The target list of Z_a^k, k >= 1, cached per color."""
        z = move(letter, a)
        known = powers.setdefault((letter, a), [z])
        while len(known) < k:
            known.append(_then(known[-1], z))
        return known[k - 1]

    def bracket(letter: str, a: Color, b: Color, depth: int) -> Optional[int]:
        """ad(Z_a)^depth (Z_b) = sum over k of (-1)^k C(depth, k) Z_a^(depth-k) Z_b Z_a^k."""
        if depth > classes[a].bit_count():
            return None  # every word is zero
        if depth == 1 and not linked[a] & classes[b]:
            return None  # no cover joins the two classes
        zb = move(letter, b)
        words = []
        for k in range(depth + 1):
            targets = zb if k == 0 else _then(power(letter, a, k), zb)
            words.append(targets if k == depth else _then(targets, power(letter, a, depth - k)))
        if depth <= 2:
            found = [_first_difference(words[0], w) for w in words[1:]]
            return min((s for s in found if s is not None), default=None)
        weights = [(-1) ** k * comb(depth, k) for k in range(depth + 1)]
        sums = (sum(c for c, t in zip(weights, ts) if t < n) for ts in zip(*words))
        return next((s for s, v in enumerate(sums) if v), None)

    pairs: list[tuple[Color, Color]] = []
    for a, b in itertools.permutations(colors, 2):
        if full_sweep or p.diagram.adjacent(a, b):
            pairs.append((a, b))
    if not full_sweep:
        # one distant pair per color keeps the depth-1 commutation covered
        for a in colors:
            for b in colors:
                if a != b and p.diagram.distant(a, b):
                    pairs.append((a, b))
                    break

    for a, b in pairs:
        depth = 1 - theta(b, a)
        xx = bracket("X", a, b, depth)
        record("XX", a, b, xx)
        record("YY", a, b, None if xx is None else bracket("Y", a, b, depth))

    radix = 3 + max((abs(v) for row in p.diagram.matrix for v in row), default=0)
    code = [0] * n
    for b in colors:
        code = [c * radix + h for c, h in zip(code, maps.h[b])]

    def weight_failures(targets: list[int], row: list[int]) -> dict[Color, int]:
        """For each b whose relation h_b(t) - h_b(s) == row[b] fails at some
        s with t = targets[s] >= 0, the least such s."""
        shift = 0
        for v in row:
            shift = shift * radix + v
        if all(code[t] - c == shift for c, t in zip(code, targets) if t >= 0):
            return {}
        failures = {}
        for b, v in zip(colors, row):
            hb = maps.h[b]
            s = next((s for s, t in enumerate(targets) if t >= 0 and hb[t] - hb[s] != v), None)
            if s is not None:
                failures[b] = s
        return failures

    for a in colors:
        up, down = maps.up[a], maps.down[a]
        row = [theta(a, b) for b in colors]
        hx = weight_failures(up, row)
        hy = weight_failures(down, [-v for v in row]) if hx else {}
        both = None
        if linked[a] & classes[a]:
            both = next((s for s, (u, d) in enumerate(zip(up, down)) if u >= 0 and d >= 0), None)
        for b in colors:
            record("HH", a, b, None)
            record("HX", a, b, hx.get(b))
            record("HY", a, b, hy.get(b))
            record("XY", a, b, both if a == b else None)

    return RelationReport(tuple(checks), True)
