"""
Raising/lowering/diagonal operators on the span of filter-ideal splits.

A split is a partition of the poset into an upward-closed filter F and the
complementary ideal I.  For each color the raising operator moves a minimal
element of F into the ideal, the lowering operator moves a maximal element of
I into the filter, and the diagonal operator has eigenvalue -1, +1 or 0
according to whether the color marks a minimal element of F, a maximal
element of I, or neither.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .axioms import check
from .dynkin import Color
from .poset import ColoredPoset

__all__ = [
    "Split",
    "IntMatrix",
    "RelationCheck",
    "RelationReport",
    "ECViolated",
    "splits",
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

    def key(self) -> tuple:
        return (len(self.ideal), tuple(sorted(self.ideal)))


def splits(p: ColoredPoset) -> list[Split]:
    """
    All splits, in canonical order (ideal size, then ideal contents).

    Enumerated by breadth-first growth of ideals: minimal elements of the
    remaining filter may be moved into the ideal one at a time.
    """
    all_elements = frozenset(p.elements)
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for ideal in frontier:
            for x in p.elements:
                if x in ideal:
                    continue
                if all(z in ideal for z in p.covered_by_x(x)):
                    grown = ideal | {x}
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append(grown)
        frontier = nxt
    out = [Split(all_elements - ideal, ideal) for ideal in seen]
    out.sort(key=Split.key)
    return out


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
    def zero(n: int) -> "IntMatrix":
        return IntMatrix(n)

    @staticmethod
    def diagonal(values: Iterable[int]) -> "IntMatrix":
        vals = list(values)
        return IntMatrix(len(vals), {(i, i): v for i, v in enumerate(vals) if v})

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return IntMatrix(self.n, out)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) - v
        return IntMatrix(self.n, out)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.n, {k: c * v for k, v in self.entries.items()})

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

    def commutator(self, other: "IntMatrix") -> "IntMatrix":
        return (self @ other) - (other @ self)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.n, {(c, r): v for (r, c), v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix) and self.n == other.n and self.entries == other.entries
        )

    __hash__ = None

    def first_nonzero_column(self) -> Optional[int]:
        """Index of a basis vector on which the matrix acts nontrivially."""
        if not self.entries:
            return None
        return min(c for _, c in self.entries)

    def to_coordinate_json(self) -> list[list[int]]:
        return sorted([r, c, v] for (r, c), v in self.entries.items())


def build_operators(
    p: ColoredPoset,
) -> tuple[list[Split], dict[Color, tuple[IntMatrix, IntMatrix, IntMatrix]]]:
    """
    The (raising, lowering, diagonal) operator triple for every color, over
    the canonical split basis.  Requires EC so that the defining sums have at
    most one term per basis vector.
    """
    if not check(p, "EC").holds:
        raise ECViolated("equal-colored incomparable elements; operator sums are ambiguous")
    basis = splits(p)
    index = {s: i for i, s in enumerate(basis)}
    n = len(basis)
    ops: dict[Color, tuple[IntMatrix, IntMatrix, IntMatrix]] = {}
    for a in p.diagram.colors:
        x_entries: dict[tuple[int, int], int] = {}
        y_entries: dict[tuple[int, int], int] = {}
        h_values: list[int] = []
        for i, s in enumerate(basis):
            mins_f = [
                x
                for x in s.filter
                if p.color(x) == a and all(z in s.ideal for z in p.covered_by_x(x))
            ]
            maxs_i = [
                x
                for x in s.ideal
                if p.color(x) == a and all(z in s.filter for z in p.covers_of(x))
            ]
            for x in mins_f:
                target = Split(s.filter - {x}, s.ideal | {x})
                x_entries[(index[target], i)] = 1
            for x in maxs_i:
                target = Split(s.filter | {x}, s.ideal - {x})
                y_entries[(index[target], i)] = 1
            if mins_f:
                h_values.append(-1)
            elif maxs_i:
                h_values.append(1)
            else:
                h_values.append(0)
        ops[a] = (
            IntMatrix(n, x_entries),
            IntMatrix(n, y_entries),
            IntMatrix.diagonal(h_values),
        )
    return basis, ops


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


def _serre_depth_bracket(xa: IntMatrix, xb: IntMatrix, depth: int) -> IntMatrix:
    acc = xb
    for _ in range(depth):
        acc = xa.commutator(acc)
    return acc


def verify_relations(p: ColoredPoset, *, full_sweep: bool = False) -> RelationReport:
    """
    Exact matrix verification of the generator relations on the split basis.

    The nested raising/lowering relations are verified at depth 1 - theta(b,a)
    for all adjacent-or-sampled distant pairs (every pair with full_sweep);
    the diagonal relations run over all pairs.  Also checks that diagonal
    eigenvalues lie in {-1, 0, 1}.
    """
    basis, ops = build_operators(p)
    colors = p.diagram.colors
    checks: list[RelationCheck] = []

    def record(relation: str, a: Color, b: Color, mat: IntMatrix) -> None:
        checks.append(
            RelationCheck(relation, a, b, mat.is_zero(), mat.first_nonzero_column())
        )

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
        xa, ya, _ = ops[a]
        xb, yb, _ = ops[b]
        record("XX", a, b, _serre_depth_bracket(xa, xb, depth))
        record("YY", a, b, _serre_depth_bracket(ya, yb, depth))

    for a in colors:
        xa, ya, ha = ops[a]
        for b in colors:
            xb, yb, hb = ops[b]
            record("HH", a, b, hb.commutator(ha))
            record("HX", a, b, hb.commutator(xa) - xa.scale(p.diagram.theta(a, b)))
            record("HY", a, b, hb.commutator(ya) + ya.scale(p.diagram.theta(a, b)))
            delta = ops[a][2] if a == b else IntMatrix.zero(len(basis))
            record("XY", a, b, xa.commutator(yb) - delta)

    eig_ok = True
    witness = None
    for a in colors:
        for (r, c), v in ops[a][2].entries.items():
            if v not in (-1, 0, 1):
                eig_ok = False
                witness = (a, r)
                break
        if not eig_ok:
            break
    return RelationReport(tuple(checks), eig_ok, witness)
