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
the raising one), and the diagonal operator as a vector.  The generator
relations are decided from these maps by three arguments, with no matrix
products and no word evaluated term by term except the brackets of depth 3
or more: HH, the eigenvalue range, XY with a != b and the brackets deeper
than their color class hold by construction; HX and HY are one comparison
of packed weights per color; the brackets of depth 1 and 2 are equalities of
target lists (see `verify_relations`).  `IntMatrix` serves the matrix export.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Optional

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
    """Sparse square matrix with exact integer entries."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Optional[Mapping[tuple[int, int], int]] = None):
        self.n = n
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for k, v in entries.items():
                if v:
                    self.entries[k] = v

    @staticmethod
    def diagonal(values: Iterable[int]) -> "IntMatrix":
        vals = list(values)
        return IntMatrix(len(vals), {(i, i): v for i, v in enumerate(vals) if v})

    # products: the test oracles' commutators, counted by perfbench's tracer
    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        rows: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in other.entries.items():
            rows.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], int] = {}
        for (r, k), v in self.entries.items():
            for c, w in rows.get(k, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + v * w
        return IntMatrix(self.n, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix) and self.n == other.n and self.entries == other.entries
        )

    __hash__ = None

    def to_coordinate_json(self) -> list[list[int]]:
        return sorted([r, c, v] for (r, c), v in self.entries.items())


def build_operators(
    p: ColoredPoset, *, maps: Optional[OperatorMaps] = None
) -> tuple[SplitBasis, dict[Color, tuple[IntMatrix, IntMatrix, IntMatrix]]]:
    """
    The (raising, lowering, diagonal) operator triple for every color, over
    the canonical split basis, as matrices, from `maps` or `operator_maps(p)`.
    """
    if maps is None:
        maps = operator_maps(p)
    n = len(maps.basis)
    ops: dict[Color, tuple[IntMatrix, IntMatrix, IntMatrix]] = {}
    for a in p.diagram.colors:
        ops[a] = (
            IntMatrix(n, {(t, s): 1 for s, t in enumerate(maps.up[a]) if t >= 0}),
            IntMatrix(n, {(t, s): 1 for s, t in enumerate(maps.down[a]) if t >= 0}),
            IntMatrix.diagonal(maps.h[a]),
        )
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
    built once per color, with no word evaluated term by term:

    - HH and the eigenvalue range hold by construction: each H is diagonal,
      and `operator_maps` only writes h in {-1, 0, 1}.
    - HX and HY for every b at once.  Where X_a e_s = e_t, the (a, b) relation
      sends e_s to (h_b(t) - h_b(s) - theta(a,b)) e_t.  Pack the eigenvalues
      of e_s into one int code[s], one digit per color, in radix
      max|theta| + 3, which exceeds every digit of that mismatch.  Then X_a
      satisfies all its (a, b) relations exactly when code[t] - code[s] is
      the packed row theta(a, .) over the domain of X_a; HY is the same check
      along Y_a with the row negated.  Only a color whose packed check fails
      is evaluated per b.
    - XY with a != b holds on every EC poset.  Let x be the least a-element
      of the filter F and y the top b-element of the ideal I of split s.
      Y_b moves only y and X_a only x, and a != b, so X_a Y_b e_s and
      Y_b X_a e_s are both nonzero exactly when the lower covers of x lie in
      I, the upper covers of y lie in F, and y is not covered by x; both
      words then land on the split of the ideal I - y + x.
    - XX and YY at depth 1 or 2.  Every word has coefficient 1 or 0 on e_s,
      so x - y vanishes exactly where both words send e_s to the same place,
      and x - 2y + z exactly where all three do.  The relation holds exactly
      when the words' target lists are equal, index n standing for zero, and
      the first index where two lists differ is the failing one.
    - XY with a = b.  X_a Y_a e_s = e_s wherever Y_a e_s is nonzero, and
      Y_a X_a e_s = e_s wherever X_a e_s is nonzero (each moves one chain
      element out and back), so the relation sends e_s to
      ([Y_a e_s != 0] - [X_a e_s != 0] - h_a(s)) e_s.  By the rule for h this
      is nonzero exactly where both X_a e_s and Y_a e_s are.
    - XX and YY deeper than the a-class is long hold by construction.  Each
      word has `depth` letters Z_a, and a Z_b with b != a moves no a-element,
      so each Z_a must move one more element of the a-chain than the last:
      no word is nonzero.  No target list is built for such a bracket, so a
      pairing as large as theta(b,a) = -10**20 costs nothing.
    - XX and YY at depth 3 or more keep the weighted sum: the binomial
      coefficients of the words nonzero on e_s, which by the argument above
      all land on one basis vector, must sum to zero.
    """
    if maps is None:
        maps = operator_maps(p)
    n = len(maps.basis)
    colors = p.diagram.colors
    theta = p.diagram.theta
    checks: list[RelationCheck] = []

    def record(relation: str, a: Color, b: Color, s: Optional[int]) -> None:
        checks.append(RelationCheck(relation, a, b, s is None, s))

    # where each map sends every index, with index n standing for zero
    moves: dict[tuple[str, Color], list[int]] = {}
    for a in colors:
        moves["X", a] = [n if t < 0 else t for t in maps.up[a]] + [n]
        moves["Y", a] = [n if t < 0 else t for t in maps.down[a]] + [n]

    # powers[letter, a][k - 1] is the target list of Z_a^k
    powers: dict[tuple[str, Color], list[list[int]]] = {}

    def power(letter: str, a: Color, k: int) -> list[int]:
        """The target list of Z_a^k, k >= 1, cached per color."""
        z = moves[letter, a]
        known = powers.setdefault((letter, a), [z])
        while len(known) < k:
            known.append(_then(known[-1], z))
        return known[k - 1]

    def bracket(letter: str, a: Color, b: Color, depth: int) -> Optional[int]:
        """ad(Z_a)^depth (Z_b) = sum over k of (-1)^k C(depth, k) Z_a^(depth-k) Z_b Z_a^k."""
        if depth > p.class_masks[a].bit_count():
            return None  # every word is zero
        words = []
        for k in range(depth + 1):
            targets = moves[letter, b] if k == 0 else _then(power(letter, a, k), moves[letter, b])
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
        record("XX", a, b, bracket("X", a, b, depth))
        record("YY", a, b, bracket("Y", a, b, depth))

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
        hy = weight_failures(down, [-v for v in row])
        both = next((s for s, (u, d) in enumerate(zip(up, down)) if u >= 0 and d >= 0), None)
        for b in colors:
            record("HH", a, b, None)
            record("HX", a, b, hx.get(b))
            record("HY", a, b, hy.get(b))
            record("XY", a, b, both if a == b else None)

    return RelationReport(tuple(checks), True)
