"""
Raising/lowering/diagonal operators on the span of filter-ideal splits.

A split is a partition of the poset into an upward-closed filter F and the
complementary ideal I.  For each color the raising operator moves a minimal
element of F into the ideal, the lowering operator moves a maximal element of
I into the filter, and the diagonal operator has eigenvalue -1, +1 or 0
according to whether the color marks a minimal element of F, a maximal
element of I, or neither.  All arithmetic is exact integer arithmetic.

The split basis is enumerated once, as ideal bitmasks.  Under EC each color
class is a chain, so a raising or lowering operator sends a basis vector to at
most one basis vector: it is stored as a partial map on split indices, and the
diagonal operator as a vector.  The generator relations are verified by
applying them to every basis vector along these maps, with no matrix products;
`IntMatrix` serves the matrix export.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Optional

from .axioms import check
from .dynkin import Color
from .poset import ColoredPoset

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
    """

    def __init__(self, bit: dict[int, int], masks: list[int]):
        self.elements = frozenset(bit)
        self.bit = bit
        self.masks = masks
        self.position = {m: i for i, m in enumerate(masks)}

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int) -> Split:
        m = self.masks[i]
        ideal = frozenset(x for x, b in self.bit.items() if m & b)
        return Split(self.elements - ideal, ideal)


def splits(p: ColoredPoset) -> SplitBasis:
    """
    All splits, in canonical order (ideal size, then ideal contents).

    Enumerated by breadth-first growth of ideal bitmasks: minimal elements of
    the remaining filter may be moved into the ideal one at a time.
    """
    n = len(p.elements)
    bit = {x: 1 << (n - 1 - k) for k, x in enumerate(p.elements)}
    growth = [(bit[x], sum(bit[z] for z in p.covered_by_x(x))) for x in p.elements]
    masks = [0]
    level = [0]
    while level:
        grown = {m | b for m in level for b, below in growth if not m & b and below & m == below}
        level = sorted(grown, reverse=True)
        masks.extend(level)
    return SplitBasis(bit, masks)


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
    """
    if not check(p, "EC").holds:
        raise ECViolated("equal-colored incomparable elements; operator sums are ambiguous")
    if basis is None:
        basis = splits(p)
    bit, position = basis.bit, basis.position
    up: dict[Color, list[int]] = {}
    down: dict[Color, list[int]] = {}
    h: dict[Color, list[int]] = {}
    for a in p.diagram.colors:
        # by EC the class is a chain, and an ideal holds an initial segment of it:
        # only the next element can be minimal in the filter, only the last
        # maximal in the ideal
        chain = sorted(p.color_class(a), key=lambda x: len(p.down_set(x)))
        class_mask = sum(bit[x] for x in chain)
        steps = [
            (bit[x], sum(bit[z] for z in p.covered_by_x(x)), sum(bit[z] for z in p.covers_of(x)))
            for x in chain
        ]
        ups, downs, hs = [], [], []
        for m in basis.masks:
            t = (m & class_mask).bit_count()
            raised = lowered = -1
            if t < len(steps):
                b, below, _ = steps[t]
                if below & m == below:
                    raised = position[m | b]
            if t:
                b, _, above = steps[t - 1]
                if not above & m:
                    lowered = position[m ^ b]
            ups.append(raised)
            downs.append(lowered)
            hs.append(-1 if raised >= 0 else 1 if lowered >= 0 else 0)
        up[a], down[a], h[a] = ups, downs, hs
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
    p: ColoredPoset, *, basis: Optional[SplitBasis] = None
) -> tuple[SplitBasis, dict[Color, tuple[IntMatrix, IntMatrix, IntMatrix]]]:
    """
    The (raising, lowering, diagonal) operator triple for every color, over
    the canonical split basis, as matrices.  Requires EC (see `operator_maps`).
    """
    maps = operator_maps(p, basis=basis)
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


def _bracket_terms(a: Color, b: Color, letter: str, depth: int) -> list[tuple[int, tuple]]:
    """ad(Z_a)^depth (Z_b) = sum over k of (-1)^k C(depth, k) Z_a^(depth-k) Z_b Z_a^k."""
    za, zb = (letter, a), (letter, b)
    return [
        ((-1) ** k * comb(depth, k), (za,) * (depth - k) + (zb,) + (za,) * k)
        for k in range(depth + 1)
    ]


def verify_relations(
    p: ColoredPoset, *, full_sweep: bool = False, basis: Optional[SplitBasis] = None
) -> RelationReport:
    """
    Exact verification of the generator relations on the split basis.

    The nested raising/lowering relations are verified at depth 1 - theta(b,a)
    for all adjacent-or-sampled distant pairs (every pair with full_sweep);
    the diagonal relations run over all pairs.  Also checks that diagonal
    eigenvalues lie in {-1, 0, 1}.

    Each relation is a sum of coefficient * word terms, a word being a product
    of operators ("X", "Y" or "H" with a color, rightmost acting first).  It is
    applied to every basis vector: a word sends e_s along the operator maps to
    a multiple of one basis vector or to zero, so no matrix is formed.  A
    failing check records the least basis index on which the relation is
    nonzero.
    """
    maps = operator_maps(p, basis=basis)
    n = len(maps.basis)
    colors = p.diagram.colors
    # Slot n stands for the zero vector: every map sends it, and index -1, to
    # itself, and every factor vanishes on it.
    step: dict[tuple[str, Color], list[int]] = {}  # where a map letter sends each index
    factor: dict[tuple[str, Color], list[int]] = {}  # H: the eigenvalue; X, Y: 1 where defined
    for a in colors:
        for letter, image in ((("X", a), maps.up[a]), (("Y", a), maps.down[a])):
            step[letter] = image + [-1]
            factor[letter] = [int(t >= 0) for t in image] + [0]
        factor["H", a] = maps.h[a] + [0]
    identity, ones = list(range(n + 1)), [1] * (n + 1)

    def times(values: list[int], targets: list[int], table: list[int]) -> list[int]:
        """values[s] * table[targets[s]] for every s."""
        if targets is identity:
            return table if values is ones else [v * f for v, f in zip(values, table)]
        if values is ones:
            return [table[t] for t in targets]
        return [v * table[t] for v, t in zip(values, targets)]

    def coefficients(word: tuple) -> list[int]:
        """c with word e_s = c[s] e_t, read from the right; 0 where it is zero."""
        targets, values = identity, ones
        for letter in reversed(word[1:]):
            if letter[0] == "H":
                values = times(values, targets, factor[letter])
            else:
                image = step[letter]
                targets = image if targets is identity else [image[t] for t in targets]
        # the leftmost letter only contributes its factor
        return times(values, targets, factor[word[0]])

    def total(columns: list[list[int]]) -> list[int]:
        if len(columns) == 1:
            return columns[0]
        return list(map(sum, zip(*columns))) if columns else [0] * (n + 1)

    def first_nonzero(terms: list[tuple[int, tuple]]) -> Optional[int]:
        # The words of a relation all change each color's count in the ideal
        # by the same amounts, and under EC an ideal is fixed by these counts
        # (it holds an initial segment of each color chain).  So every word
        # sends e_s to a multiple of one and the same basis vector, and the
        # relation vanishes on e_s exactly when the multiples of its terms
        # with positive coefficients sum to those with negative ones.
        sides: tuple[list, list] = ([], [])
        for coef, word in terms:
            if coef:
                column = coefficients(word)
                scale = abs(coef)
                if scale != 1:
                    column = [scale * c for c in column]
                sides[coef < 0].append(column)
        left, right = total(sides[0]), total(sides[1])
        if left == right:
            return None
        return next(s for s, (x, y) in enumerate(zip(left, right)) if x != y)

    checks: list[RelationCheck] = []

    def record(relation: str, a: Color, b: Color, terms: list[tuple[int, tuple]]) -> None:
        s = first_nonzero(terms)
        checks.append(RelationCheck(relation, a, b, s is None, s))

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
        depth = 1 - p.diagram.theta(b, a)
        record("XX", a, b, _bracket_terms(a, b, "X", depth))
        record("YY", a, b, _bracket_terms(a, b, "Y", depth))

    for a in colors:
        xa, ya, ha = ("X", a), ("Y", a), ("H", a)
        for b in colors:
            hb, yb = ("H", b), ("Y", b)
            theta = p.diagram.theta(a, b)
            record("HH", a, b, [(1, (hb, ha)), (-1, (ha, hb))])
            record("HX", a, b, [(1, (hb, xa)), (-1, (xa, hb)), (-theta, (xa,))])
            record("HY", a, b, [(1, (hb, ya)), (-1, (ya, hb)), (theta, (ya,))])
            record("XY", a, b, [(1, (xa, yb)), (-1, (yb, xa)), (-(a == b), (ha,))])

    eig_ok = True
    witness = None
    for a in colors:
        for s, v in enumerate(maps.h[a]):
            if v not in (-1, 0, 1):
                eig_ok = False
                witness = (a, s)
                break
        if not eig_ok:
            break
    return RelationReport(tuple(checks), eig_ok, witness)
