"""Shared test utilities: seeded random structures and brute-force oracles."""

from __future__ import annotations

import itertools
import os
import random

from minuscule.axioms import is_minuscule
from minuscule.catalog import FamilyId, build
from minuscule.classify import ComponentClassification
from minuscule.dynkin import DynkinDiagram, is_simply_laced, validate
from minuscule.poset import ColoredPoset, colored_isomorphism


def seed_from_env(default: int = 20250808) -> int:
    return int(os.environ.get("MINUSCULE_SEED", default))


def random_diagram(rng: random.Random, n_colors: int, multiply_laced: bool = True) -> DynkinDiagram:
    """A random valid pairing table on colors 1..n_colors."""
    rows = [[2 if i == j else 0 for j in range(n_colors)] for i in range(n_colors)]
    for i in range(n_colors):
        for j in range(i + 1, n_colors):
            roll = rng.random()
            if roll < 0.45:
                continue  # distant
            if not multiply_laced or roll < 0.8:
                rows[i][j] = rows[j][i] = -1
            else:
                rows[i][j] = -rng.choice([1, 2])
                rows[j][i] = -rng.choice([1, 2])
    return validate(list(range(1, n_colors + 1)), rows)


def random_colored_poset(
    rng: random.Random, max_elements: int = 8, max_colors: int = 5
) -> ColoredPoset:
    """A random colored poset: random DAG reduced to covers, surjective coloring."""
    n_colors = rng.randint(1, max_colors)
    n = rng.randint(n_colors, max_elements)
    diagram = random_diagram(rng, n_colors)
    # random order relation on 1..n via random edges i<j, transitively closed
    less: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.4:
                less[i].add(j)
    for k in range(1, n + 1):  # closure
        for i in range(1, n + 1):
            if k in less[i]:
                less[i] |= less[k]
    covers = []
    for i in range(1, n + 1):
        for j in less[i]:
            if not any(j in less[z] for z in less[i]):
                covers.append((i, j))
    colors = list(range(1, n_colors + 1))
    assignment = colors + [rng.choice(colors) for _ in range(n - n_colors)]
    rng.shuffle(assignment)
    coloring = {i + 1: assignment[i] for i in range(n)}
    return ColoredPoset(diagram, coloring, covers)


def random_filter_poset(rng: random.Random, base: ColoredPoset) -> ColoredPoset:
    """A random nonempty order filter of the base, keeping the ambient diagram
    restricted to the colors that survive."""
    seedling = rng.choice(base.elements)
    members = set(base.up_set(seedling))
    for x in base.elements:
        if rng.random() < 0.4:
            members |= base.up_set(x)
    return base.subposet(members)


def brute_force_linear_extension_count(p: ColoredPoset) -> int:
    count = 0
    for perm in itertools.permutations(p.elements):
        pos = {x: i for i, x in enumerate(perm)}
        if all(pos[x] < pos[y] for x, y in p.covers):
            count += 1
    return count


def brute_force_colored_isomorphic(p1: ColoredPoset, p2: ColoredPoset) -> bool:
    """Exhaustive search over color and element bijections (tiny inputs only)."""
    if len(p1) != len(p2) or len(p1.diagram) != len(p2.diagram):
        return False
    d1, d2 = p1.diagram, p2.diagram
    for cperm in itertools.permutations(d2.colors):
        gamma = dict(zip(d1.colors, cperm))
        if any(
            d1.theta(a, b) != d2.theta(gamma[a], gamma[b])
            for a in d1.colors
            for b in d1.colors
        ):
            continue
        for eperm in itertools.permutations(p2.elements):
            pi = dict(zip(p1.elements, eperm))
            if any(gamma[p1.color(x)] != p2.color(pi[x]) for x in p1.elements):
                continue
            if all(
                p1.lt(x, y) == p2.lt(pi[x], pi[y])
                for x in p1.elements
                for y in p1.elements
            ):
                return True
    return False


def brute_force_ideal_count(p: ColoredPoset) -> int:
    """Count downward-closed subsets by scanning the whole power set."""
    n = len(p.elements)
    elts = list(p.elements)
    count = 0
    for mask in range(1 << n):
        members = {elts[i] for i in range(n) if mask >> i & 1}
        if all(set(p.covered_by_x(x)) <= members for x in members):
            count += 1
    return count


def scrambled(p: ColoredPoset, rng: random.Random, order=None) -> ColoredPoset:
    """The same colored poset up to colored isomorphism: element ids permuted,
    colors renamed, and the diagram's colors listed in the given order of
    their positions (a random order by default)."""
    n = len(p.diagram)
    names = [f"c{v}" for v in rng.sample(range(10 * n + 10), n)]
    rename = dict(zip(p.diagram.colors, names))
    if order is None:
        order = rng.sample(range(n), n)
    rows = [[p.diagram.matrix[a][b] for b in order] for a in order]
    diagram = validate([names[i] for i in order], rows)
    ids = dict(zip(p.elements, rng.sample(range(1, 4 * len(p) + 10), len(p))))
    coloring = {ids[x]: rename[p.color(x)] for x in p.elements}
    return ColoredPoset(diagram, coloring, [(ids[x], ids[y]) for x, y in p.covers])


def candidate_families(p: ColoredPoset) -> list[FamilyId]:
    """Families a connected poset might belong to, guessed from its size, its
    color-class sizes, whether it is a chain and whether it is simply laced."""
    n = len(p.diagram)
    size = len(p)
    simply = is_simply_laced(p.diagram)
    is_chain = all(
        p.comparable(x, y) for i, x in enumerate(p.elements) for y in p.elements[i + 1 :]
    )
    out: list[FamilyId] = []
    if simply and is_chain and size == n:
        out.append(FamilyId("A_standard", n))
    if simply and n >= 3:
        for j in range(2, n):
            if size == j * (n + 1 - j):
                out.append(FamilyId("A_exterior", n, j))
    if not simply and n >= 2 and size == n * (n + 1) // 2:
        out.append(FamilyId("B", n))
    if not simply and is_chain and n >= 3 and size == 2 * n - 1:
        out.append(FamilyId("C", n))
    if simply and n >= 4 and size == 2 * n - 2:
        out.append(FamilyId("D_standard", n))
    if simply and n >= 5 and size == n * (n - 1) // 2:
        out.append(FamilyId("D_spin", n))
    if simply and n == 6 and size == 16:
        out.append(FamilyId("E6", 6))
    if simply and n == 7 and size == 27:
        out.append(FamilyId("E7", 7))

    sizes = sorted(len(p.color_class(a)) for a in p.diagram.colors)

    def class_sizes(f: FamilyId) -> list[int]:
        q = build(f)
        return sorted(len(q.color_class(a)) for a in q.diagram.colors)

    return [f for f in out if class_sizes(f) == sizes]


def classify_connected_oracle(p: ColoredPoset) -> ComponentClassification:
    """Reference classification by search: a colored isomorphism search
    against every candidate family, the first match in family order named."""
    ok, reports = is_minuscule(p)
    if not ok:
        return ComponentClassification(p, None, (), None, tuple(reports))
    matches = []
    for fam in sorted(candidate_families(p), key=FamilyId.sort_key):
        iso = colored_isomorphism(p, build(fam))
        if iso is not None:
            matches.append((fam, iso))
    if not matches:
        raise AssertionError("minuscule poset matched no family")
    fam, iso = matches[0]
    return ComponentClassification(p, fam, tuple(f for f, _ in matches), iso, ())
