"""Shared test utilities: seeded random structures and brute-force oracles."""

from __future__ import annotations

import itertools
import os
import random
from functools import lru_cache
from typing import Iterator, Optional

from minuscule.axioms import AxiomReport, Witness, check, is_d_complete, is_minuscule
from minuscule.catalog import (
    FAMILIES,
    FamilyId,
    all_family_ids,
    build,
    diagram_of_type,
    family_of,
    kac_automorphisms,
)
from minuscule.classify import Classification, ComponentClassification, classify_connected
from minuscule.coroots import (
    Coroot,
    CorootSystem,
    NotMinusculeInput,
    PsiRealization,
    coroot_filter,
    coroot_poset,
    coroot_system,
    heap_to_word,
    inversion_sequence,
)
from minuscule.dynkin import (
    AsymmetricZero,
    Color,
    DiagonalNotTwo,
    DiagramError,
    DynkinDiagram,
    PositiveOffDiagonal,
    is_simply_laced,
    recognize_finite_type,
)
from minuscule.extension import (
    STAGE_CAP_FACTOR,
    Assessment,
    ExtensionOutcome,
    StageRecord,
)
from minuscule.heapwindow import PeriodicWindow
from minuscule.representation import (
    ECViolated,
    IntMatrix,
    RelationReport,
    Split,
)
from minuscule.poset import (
    ColoredPoset,
    PosetError,
    TopTree,
    bits,
    component_masks,
    order_dual,
    top_tree,
)


def seed_from_env(default: int = 20250808) -> int:
    return int(os.environ.get("MINUSCULE_SEED", default))


# -- queries only the tests read --------------------------------------------


def covers_of(p: ColoredPoset, x: int) -> tuple[int, ...]:
    """Elements covering x, in id order."""
    return p.members(p.cover_masks[p.position[x]])


def covered_by_x(p: ColoredPoset, x: int) -> tuple[int, ...]:
    """Elements covered by x, in id order."""
    return p.members(p.lower_cover_masks[p.position[x]])


def down_set(p: ColoredPoset, x: int) -> frozenset[int]:
    """The principal ideal {y : y <= x}."""
    i = p.position[x]
    return frozenset(p.members(p.down_masks[i] | 1 << i))


def subposet(p: ColoredPoset, keep) -> ColoredPoset:
    """Induced subposet on a subset, with the covers of the induced order,
    over the diagram restricted to the colors that appear."""
    coloring = {x: p.coloring[x] for x in sorted(set(keep))}
    sub = p.diagram.restrict(set(coloring.values()))
    return ColoredPoset(sub, coloring, p.induced_covers(coloring))


def disjoint_union(posets) -> ColoredPoset:
    """
    Disjoint union; element ids are shifted and colors are tagged per part so
    the resulting diagram is the disjoint union of the parts' diagrams.
    """
    colors: list = []
    pairings: list[tuple[str, str, int]] = []
    coloring: dict[int, str] = {}
    covers: list[tuple[int, int]] = []
    offset = 0
    for part_idx, p in enumerate(posets):
        tag = {c: f"{part_idx}.{c}" for c in p.diagram.colors}
        colors += tag.values()
        pairings += [(tag[a], tag[b], v) for a in tag for b, v in p.diagram.pairings(a)]
        for x in p.elements:
            coloring[x + offset] = tag[p.color(x)]
        covers += [(x + offset, y + offset) for x, y in p.covers]
        offset += max(p.elements) + 1
    return ColoredPoset(DynkinDiagram.from_pairings(colors, pairings), coloring, covers)


def connected_components(p: ColoredPoset) -> list[ColoredPoset]:
    """The connected components of `component_masks` as posets, each over
    the diagram restricted to its colors; a connected p is its own."""
    masks = component_masks(p)
    if len(masks) == 1:
        return [p]
    return [subposet(p, p.members(m)) for m in masks]


def is_filter(tree: TopTree) -> bool:
    """Whether every element covering a top-tree element lies in the tree."""
    eset = set(tree.elements)
    return all(set(covers_of(tree.poset, x)) <= eset for x in tree.elements)


class NotDComplete(ValueError):
    pass


class NotConnectedPoset(ValueError):
    pass


def is_slant_irreducible(p: ColoredPoset) -> bool:
    """
    No top-tree cover x -> y where y is the only element of its color.

    Defined for connected finite d-complete posets.
    """
    if len(connected_components(p)) != 1:
        raise NotConnectedPoset("slant irreducibility needs a connected poset")
    ok, _ = is_d_complete(p)
    if not ok:
        raise NotDComplete("slant irreducibility is defined for d-complete posets")
    tree = top_tree(p)
    for x, y in tree.covers:
        if len(p.color_class(p.color(y))) == 1:
            return False
    return True


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
    return DynkinDiagram(list(range(1, n_colors + 1)), rows)


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
    return subposet(base, members)


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
        if all(set(covered_by_x(p, x)) <= members for x in members):
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
    m = p.diagram.matrix  # the dense view, built once
    rows = [[m[a][b] for b in order] for a in order]
    diagram = DynkinDiagram([names[i] for i in order], rows)
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


# The search `colored_isomorphism` ran before it fixed gamma as it placed
# elements: every gamma in the diagram's color order, then pi by recursion for
# each.  `classify_connected_oracle` names its first witness.
def colored_isomorphism_oracle(
    p1: ColoredPoset, p2: ColoredPoset
) -> Optional[tuple[dict[int, int], dict[Color, Color]]]:
    """
    A pair (pi, gamma) with pi an order isomorphism, gamma a pairing-preserving
    diagram bijection, and color(pi(x)) = gamma(color(x)); None if there is none.

    Deterministic backtracking over color-class-respecting candidate maps.
    """
    if len(p1) != len(p2) or len(p1.diagram) != len(p2.diagram):
        return None

    def class_profile(p: ColoredPoset, a: Color) -> tuple:
        cls = p.class_masks[a]
        degrees = (
            (p.cover_masks[i].bit_count(), p.lower_cover_masks[i].bit_count()) for i in bits(cls)
        )
        return cls.bit_count(), tuple(sorted(degrees))

    d1, d2 = p1.diagram, p2.diagram
    candidates: dict[Color, list[Color]] = {}
    for a in d1.colors:
        opts = [
            b
            for b in d2.colors
            if d1.degree(a) == d2.degree(b) and class_profile(p1, a) == class_profile(p2, b)
        ]
        if not opts:
            return None
        candidates[a] = opts

    def extend_gamma(i: int, gamma: dict[Color, Color]) -> Iterator[dict[Color, Color]]:
        if i == len(d1.colors):
            yield dict(gamma)
            return
        a = d1.colors[i]
        for b in candidates[a]:
            if b in gamma.values():
                continue
            ok = all(
                d1.theta(a, c) == d2.theta(b, gamma[c]) and d1.theta(c, a) == d2.theta(gamma[c], b)
                for c in gamma
            )
            if not ok:
                continue
            gamma[a] = b
            yield from extend_gamma(i + 1, gamma)
            del gamma[a]

    def element_signature(p: ColoredPoset, x: int) -> tuple:
        i = p.position[x]
        masks = (p.cover_masks, p.lower_cover_masks, p.up_masks, p.down_masks)
        return tuple(m[i].bit_count() for m in masks)

    def find_pi(gamma: dict[Color, Color]) -> Optional[dict[int, int]]:
        pi: dict[int, int] = {}
        used: set[int] = set()

        def rec(i: int) -> bool:
            if i == len(p1.elements):
                return True
            x = p1.elements[i]
            for y in p2.elements:
                if y in used:
                    continue
                if p2.color(y) != gamma[p1.color(x)]:
                    continue
                if element_signature(p1, x) != element_signature(p2, y):
                    continue
                ok = True
                for z, w in pi.items():
                    if p1.lt(x, z) != p2.lt(y, w) or p1.lt(z, x) != p2.lt(w, y):
                        ok = False
                        break
                    if ((x, z) in p1.covers) != ((y, w) in p2.covers):
                        ok = False
                        break
                    if ((z, x) in p1.covers) != ((w, y) in p2.covers):
                        ok = False
                        break
                if not ok:
                    continue
                pi[x] = y
                used.add(y)
                if rec(i + 1):
                    return True
                del pi[x]
                used.discard(y)
            return False

        return dict(pi) if rec(0) else None

    for gamma in extend_gamma(0, {}):
        pi = find_pi(gamma)
        if pi is not None:
            return pi, gamma
    return None


def classify_connected_oracle(p: ColoredPoset) -> ComponentClassification:
    """Reference classification by search: a colored isomorphism search
    against every candidate family, the first match in family order named."""
    ok, reports = is_minuscule(p)
    if not ok:
        return ComponentClassification(p.elements, None, (), None, tuple(reports))
    matches = []
    for fam in sorted(candidate_families(p), key=FamilyId.sort_key):
        iso = colored_isomorphism_oracle(p, build(fam))
        if iso is not None:
            matches.append((fam, iso))
    if not matches:
        raise AssertionError("minuscule poset matched no family")
    fam, iso = matches[0]
    return ComponentClassification(p.elements, fam, tuple(f for f, _ in matches), iso, ())


# The route `classify_connected` took before it walked the component's own
# diagram: it built the family's poset a second time and zipped class chains.
def classify_connected_build_oracle(p: ColoredPoset) -> ComponentClassification:
    """Reference classification by the theorem route over a second catalog
    build: family and matches from the finite type and the top color's Kac
    number, the witness zipped along the class chains of `build(family)`."""
    ok, reports = is_minuscule(p)
    if not ok:
        return ComponentClassification(p.elements, None, (), None, tuple(reports))
    ftype = recognize_finite_type(p.diagram)
    maxima = p.maximal_elements()
    if ftype is None or len(maxima) != 1:
        raise AssertionError("minuscule poset matched no family")
    nu = ftype.numbering_map
    j = nu[p.color(maxima[0])]
    sigmas = kac_automorphisms(ftype.letter, ftype.rank)
    matches = sorted(
        {family_of(ftype.letter, ftype.rank, s[j]) for s in sigmas}, key=FamilyId.sort_key
    )
    q = build(matches[0])
    top = q.color(q.maximal_elements()[0])
    gamma = min(
        ({a: s[nu[a]] for a in p.diagram.colors} for s in sigmas if s[j] == top),
        key=lambda g: [g[a] for a in p.diagram.colors],
    )
    pi = {
        x: y for a in p.diagram.colors for x, y in zip(p.class_chain(a), q.class_chain(gamma[a]))
    }
    if len(pi) != len(p) or len(p) != len(q) or {(pi[x], pi[y]) for x, y in p.covers} != q.covers:
        raise AssertionError(f"minuscule poset does not match {matches[0]}")
    return ComponentClassification(p.elements, matches[0], tuple(matches), (pi, gamma), ())


# The route `classify` took before it classified a disconnected input on
# itself: a component poset for each component, both axiom passes on each,
# then the cross-component EC and AC checks on the input.
def classify_oracle(p: ColoredPoset) -> Classification:
    """Reference classification through component posets."""
    entries = tuple(classify_connected(c) for c in connected_components(p))
    cross = tuple(r for r in (check(p, "EC"), check(p, "AC")) if not r.holds)
    return Classification(entries, cross)


def split_count_oracle(p: ColoredPoset) -> int:
    """
    Independent ideal count via the deletion recurrence: for a minimal element
    m, ideals either avoid the filter above m or contain m.
    """
    up = {x: p.up_set(x) for x in p.elements}

    @lru_cache(maxsize=None)
    def count(members: frozenset[int]) -> int:
        if not members:
            return 1
        m = min(
            x for x in members if not any(y in members for y in covered_by_x(p, x))
        )
        return count(members - up[m]) + count(members - {m})

    return count(frozenset(p.elements))


def automorphisms(diagram: DynkinDiagram) -> list[dict[Color, Color]]:
    """All color bijections preserving the pairing table, by exhaustive search."""
    n = len(diagram.colors)
    sig = {
        a: tuple(sorted((diagram.theta(a, b), diagram.theta(b, a)) for b in diagram.colors if b != a))
        for a in diagram.colors
    }
    out: list[dict[Color, Color]] = []
    m = diagram.matrix
    for perm in itertools.permutations(range(n)):
        if any(sig[diagram.colors[i]] != sig[diagram.colors[perm[i]]] for i in range(n)):
            continue
        if all(
            m[i][j] == m[perm[i]][perm[j]]
            for i in range(n)
            for j in range(n)
        ):
            out.append({diagram.colors[i]: diagram.colors[perm[i]] for i in range(n)})
    return out


def ch_set(poset: ColoredPoset) -> frozenset[int]:
    """Elements whose principal filter is a chain."""
    out = []
    for x in poset.elements:
        ups = sorted(poset.up_set(x))
        if all(poset.comparable(u, v) for u, v in itertools.combinations(ups, 2)):
            out.append(x)
    return frozenset(out)


def linear_extensions(poset: ColoredPoset) -> Iterator[tuple[int, ...]]:
    """All linear extensions, each exactly once, in lexicographic id order."""
    down = {x: set(covered_by_x(poset, x)) for x in poset.elements}
    taken: list[int] = []
    used: set[int] = set()

    def rec() -> Iterator[tuple[int, ...]]:
        if len(taken) == len(poset.elements):
            yield tuple(taken)
            return
        for x in poset.elements:
            if x in used or not down[x] <= used:
                continue
            used.add(x)
            taken.append(x)
            yield from rec()
            taken.pop()
            used.discard(x)

    return rec()


def first_linear_extension_oracle(poset: ColoredPoset, within=None) -> tuple[int, ...]:
    """Reference `first_linear_extension`: for each place, rescan the members
    from the lowest id for the first one whose lower covers among the
    members are all placed."""
    members = sorted(within) if within is not None else list(poset.elements)
    mset = set(members)
    used: set[int] = set()
    out: list[int] = []
    while len(out) < len(members):
        for x in members:
            if x in used:
                continue
            if all(z in used for z in covered_by_x(poset, x) if z in mset):
                used.add(x)
                out.append(x)
                break
        else:
            raise PosetError("no linear extension; covers are cyclic")
    return tuple(out)


def component_element_sets_oracle(poset: ColoredPoset) -> list[frozenset[int]]:
    """Reference for the components of `connected_components`: a depth-first
    search over the covers in both directions from each unseen id, lowest
    first."""
    neighbors: dict[int, list[int]] = {x: [] for x in poset.elements}
    for x, y in poset.covers:
        neighbors[x].append(y)
        neighbors[y].append(x)
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for x in poset.elements:
        if x in seen:
            continue
        comp = {x}
        stack = [x]
        while stack:
            for w in neighbors[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


class NotRanked(PosetError):
    """The poset admits no rank function with unit steps along covers."""


def rank_function(poset: ColoredPoset) -> dict[int, int]:
    """
    The rank map with unit steps along covers, ranks increasing downward.

    Anchors: rank(splitting element of the top tree) = -1 when the poset is
    connected with such an element (so the unique maximal element sits at -i);
    connected posets with a chain top tree put their maximum at -height; any
    other ranked poset is normalized per component with minimum rank 0.
    Raises NotRanked when covers cannot all have unit length.
    """
    rank: dict[int, int] = {}
    components = [frozenset(c.elements) for c in connected_components(poset)]
    for comp in components:
        comp_rank: dict[int, int] = {}
        root = min(comp)
        comp_rank[root] = 0
        queue = [root]
        while queue:
            x = queue.pop()
            for y in covers_of(poset, x):
                if y in comp:
                    r = comp_rank[x] - 1
                    if comp_rank.get(y, r) != r:
                        raise NotRanked(f"elements {x},{y} witness unequal chain lengths")
                    if y not in comp_rank:
                        comp_rank[y] = r
                        queue.append(y)
            for y in covered_by_x(poset, x):
                if y in comp:
                    r = comp_rank[x] + 1
                    if comp_rank.get(y, r) != r:
                        raise NotRanked(f"elements {y},{x} witness unequal chain lengths")
                    if y not in comp_rank:
                        comp_rank[y] = r
                        queue.append(y)
        for x, y in poset.covers:
            if x in comp and comp_rank[x] != comp_rank[y] + 1:
                raise NotRanked(f"cover ({x},{y}) spans more than one rank")

        shift = -min(comp_rank.values())
        if len(components) == 1:
            maxima = poset.maximal_elements()
            if len(maxima) == 1:
                try:
                    tree = top_tree(poset)
                except PosetError:
                    tree = None
                s = tree.splitting_element() if tree is not None else None
                if s is not None:
                    shift = -1 - comp_rank[s]
                else:
                    shift = -(max(comp_rank.values()) - min(comp_rank.values())) - min(comp_rank.values())
        rank.update({x: r + shift for x, r in comp_rank.items()})
    return rank


def verify_window_oracle(w: PeriodicWindow) -> list[AxiomReport]:
    """Reference window checks: hand-written interior scans for EC, NA, AC
    and ICE2, and the window chain axiom scanning each color class."""
    p = w.poset
    reports: list[AxiomReport] = []
    inner = [x for x in p.elements if x not in w.boundary]

    ec, na, ac = [], [], []
    for x, y in itertools.combinations(inner, 2):
        a, b = p.color(x), p.color(y)
        if a == b and not p.comparable(x, y):
            ec.append(Witness((x, y), note="equal colors, incomparable"))
        if p.diagram.adjacent(a, b) and not p.comparable(x, y):
            ac.append(Witness((x, y), note="adjacent colors, incomparable"))
    for x, y in sorted(p.covers):
        if x in w.boundary or y in w.boundary:
            continue
        if not p.diagram.adjacent(p.color(x), p.color(y)):
            na.append(Witness((x, y), note="cover with non-adjacent colors"))
    reports.append(AxiomReport("EC", not ec, tuple(ec)))
    reports.append(AxiomReport("NA", not na, tuple(na)))
    reports.append(AxiomReport("AC", not ac, tuple(ac)))

    ice = []
    for a in p.diagram.colors:
        for x, y in p.induced_covers(p.color_class(a)):
            interval = p.open_interval(x, y)
            if interval & w.boundary:
                continue
            census = sum(-p.diagram.theta(p.color(z), a) for z in interval)
            if census != 2:
                ice.append(Witness((x, y), value=census, note=f"interior census for {a!r}"))
    reports.append(AxiomReport("ICE2", not ice, tuple(ice)))

    g3 = []
    for a in p.diagram.colors:
        cls = p.color_class(a)
        if len(cls) < 2:
            g3.append(Witness(cls, value=len(cls), note=f"color {a!r} occurs fewer than twice"))
            continue
        for i, x in enumerate(cls):
            for y in cls[i + 1 :]:
                if not p.comparable(x, y):
                    g3.append(Witness((x, y), note=f"color class {a!r} is not a chain"))
    for x in p.maximal_elements() + p.minimal_elements():
        if x not in w.boundary:
            g3.append(Witness((x,), note="window extreme is not boundary-marked"))
    reports.append(AxiomReport("G3-window", not g3, tuple(g3)))
    return reports


def splits_oracle(p: ColoredPoset) -> list[Split]:
    """All splits in canonical order, grown as frozensets (the reference
    enumeration)."""
    all_elements = frozenset(p.elements)
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for ideal in frontier:
            for x in p.elements:
                if x in ideal:
                    continue
                if all(z in ideal for z in covered_by_x(p, x)):
                    grown = ideal | {x}
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append(grown)
        frontier = nxt
    # canonical order: ideal size, then ideal contents
    ordered = sorted(seen, key=lambda ideal: (len(ideal), sorted(ideal)))
    return [Split(all_elements - ideal, ideal) for ideal in ordered]


def split_masks_oracle(p: ColoredPoset) -> list[int]:
    """The ideal bitmasks of every split in canonical order, grown a level at
    a time by testing every element against every ideal (the enumeration
    `splits` replaced).  The k-th smallest of n ids owns bit n-1-k."""
    n = len(p.elements)
    bit = {x: 1 << (n - 1 - k) for k, x in enumerate(p.elements)}
    growth = [(bit[x], sum(bit[z] for z in covered_by_x(p, x))) for x in p.elements]
    masks = [0]
    level = [0]
    while level:
        grown = {m | b for m in level for b, below in growth if not m & b and below & m == below}
        level = sorted(grown, reverse=True)
        masks.extend(level)
    return masks


def operator_maps_oracle(p: ColoredPoset, masks: list[int]) -> tuple[dict, dict, dict]:
    """The (up, down, h) maps of an EC poset over the split masks, built color
    by color with one addability test per split (the loop `operator_maps`
    replaced)."""
    n = len(p.elements)
    bit = {x: 1 << (n - 1 - k) for k, x in enumerate(p.elements)}
    position = {m: i for i, m in enumerate(masks)}
    up: dict[Color, list[int]] = {}
    down: dict[Color, list[int]] = {}
    h: dict[Color, list[int]] = {}
    for a in p.diagram.colors:
        # only the chain-next a-element can be minimal in the filter
        chain = p.class_chain(a)
        class_mask = sum(bit[x] for x in chain)
        steps = [(bit[x], sum(bit[z] for z in covered_by_x(p, x))) for x in chain] + [(0, -1)]
        ups = []
        for m in masks:
            b, below = steps[(m & class_mask).bit_count()]
            ups.append(position[m | b] if below & m == below else -1)
        downs = [-1] * len(ups)
        for s, t in enumerate(ups):
            if t >= 0:
                downs[t] = s
        up[a], down[a] = ups, downs
        h[a] = [-1 if u >= 0 else 1 if d >= 0 else 0 for u, d in zip(ups, downs)]
    return up, down, h


def build_operators_oracle(
    p: ColoredPoset,
) -> tuple[list[Split], dict[Color, tuple[IntMatrix, IntMatrix, IntMatrix]]]:
    """Reference operators: every minimal element of the filter and maximal
    element of the ideal of each color, scanned split by split."""
    if not check(p, "EC").holds:
        raise ECViolated("equal-colored incomparable elements; operator sums are ambiguous")
    basis = splits_oracle(p)
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
                if p.color(x) == a and all(z in s.ideal for z in covered_by_x(p, x))
            ]
            maxs_i = [
                x
                for x in s.ideal
                if p.color(x) == a and all(z in s.filter for z in covers_of(p, x))
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
            matrix(n, x_entries),
            matrix(n, y_entries),
            matrix(n, {(i, i): v for i, v in enumerate(h_values)}),
        )
    return basis, ops


def matrix(n: int, entries: dict[tuple[int, int], int]) -> IntMatrix:
    """The n x n matrix with these entries, zeros dropped."""
    return IntMatrix(n, sorted([r, c, v] for (r, c), v in entries.items() if v))


def entries(a: IntMatrix) -> dict[tuple[int, int], int]:
    """The nonzero entries of a, keyed by (row, column)."""
    return {(r, c): v for r, c, v in a.coordinates}


def mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    out = entries(a)
    for k, v in entries(b).items():
        out[k] = out.get(k, 0) + v
    return matrix(a.n, out)


def mat_scale(a: IntMatrix, c: int) -> IntMatrix:
    return matrix(a.n, {k: c * v for k, v in entries(a).items()})


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return mat_add(a, mat_scale(b, -1))


def commutator(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return mat_sub(a @ b, b @ a)


def transpose(a: IntMatrix) -> IntMatrix:
    return matrix(a.n, {(c, r): v for (r, c), v in entries(a).items()})


def verify_relations_oracle(p: ColoredPoset, *, full_sweep: bool = False) -> RelationReport:
    """Reference relation check: each relation formed as a sparse matrix from
    nested commutators of the oracle operators."""
    basis, ops = build_operators_oracle(p)
    colors = p.diagram.colors
    rows: list[tuple] = []

    def record(relation: str, a: Color, b: Color, mat: IntMatrix) -> None:
        rows.append((relation, a, b, min((c for _, c, _ in mat.coordinates), default=None)))

    def nested(xa: IntMatrix, xb: IntMatrix, depth: int) -> IntMatrix:
        acc = xb
        for _ in range(depth):
            acc = commutator(xa, acc)
        return acc

    pairs: list[tuple[Color, Color]] = []
    for a, b in itertools.permutations(colors, 2):
        if full_sweep or p.diagram.adjacent(a, b):
            pairs.append((a, b))
    if not full_sweep:
        for a in colors:
            for b in colors:
                if a != b and p.diagram.distant(a, b):
                    pairs.append((a, b))
                    break

    for a, b in pairs:
        depth = 1 - p.diagram.theta(b, a)
        xa, ya, _ = ops[a]
        xb, yb, _ = ops[b]
        record("XX", a, b, nested(xa, xb, depth))
        record("YY", a, b, nested(ya, yb, depth))

    for a in colors:
        xa, ya, ha = ops[a]
        for b in colors:
            xb, yb, hb = ops[b]
            theta = p.diagram.theta(a, b)
            record("HH", a, b, commutator(hb, ha))
            record("HX", a, b, mat_sub(commutator(hb, xa), mat_scale(xa, theta)))
            record("HY", a, b, mat_add(commutator(hb, ya), mat_scale(ya, theta)))
            delta = ops[a][2] if a == b else IntMatrix(len(basis), [])
            record("XY", a, b, mat_sub(commutator(xa, yb), delta))

    eig_ok = True
    witness = None
    for a in colors:
        for r, c, v in ops[a][2].coordinates:
            if v not in (-1, 0, 1):
                eig_ok = False
                witness = (a, r)
                break
        if not eig_ok:
            break
    return RelationReport(tuple(rows), eig_ok, witness)


def coroot_covers_oracle(diagram: DynkinDiagram, j: int) -> set[tuple[Coroot, Coroot]]:
    """Covers of the coroot filter above alpha_j by testing every triple of
    its members (the reference for `coroots.coroot_poset`)."""
    members = coroot_filter(diagram, j)

    def leq(a: Coroot, b: Coroot) -> bool:
        return all(x <= y for x, y in zip(a, b))

    return {
        (a, b)
        for a, b in itertools.permutations(members, 2)
        if leq(a, b) and not any(c != a and c != b and leq(a, c) and leq(c, b) for c in members)
    }


def _is_positive(beta: Coroot) -> bool:
    return any(beta) and all(v >= 0 for v in beta)


def apply_word(system: CorootSystem, word: tuple[int, ...], beta: Coroot) -> Coroot:
    """Act by the word read right to left (rightmost reflection first)."""
    for i in reversed(word):
        beta = system.reflect(i, beta)
    return beta


def inversion_set_oracle(diagram: DynkinDiagram, word: tuple[int, ...]) -> frozenset[Coroot]:
    """Positive coroots sent negative by the word, found by applying it to
    every positive coroot (independent of any reduced expression bookkeeping)."""
    system = coroot_system(diagram)
    return frozenset(
        beta
        for beta in system.positive_coroots()
        if all(v <= 0 for v in apply_word(system, word, beta))
    )


def positive_coroots_oracle(system: CorootSystem) -> tuple[Coroot, ...]:
    """Closure of the simple coroots under every reflection that stays in the
    positive cone, in the order of `CorootSystem.positive_coroots`."""
    found = {system.simple(i) for i in range(1, system.n + 1)}
    frontier = set(found)
    while frontier:
        nxt = set()
        for beta in frontier:
            for i in range(1, system.n + 1):
                img = system.reflect(i, beta)
                if _is_positive(img) and img not in found:
                    found.add(img)
                    nxt.add(img)
        frontier = nxt
    return tuple(sorted(found, key=lambda b: (sum(b), tuple(-v for v in b))))


def psi_oracle(p: ColoredPoset) -> PsiRealization:
    """Reference realization: each element's coroot is the last entry of the
    inversion sequence of its own up-set's word, and every word carries two
    certificates of its own: its sequence is its inversion set, and it keeps
    each coroot outside the filter positive."""
    ok, _ = is_minuscule(p)
    if not ok:
        raise NotMinusculeInput("coroot realization needs a minuscule poset")
    maxima = p.maximal_elements()
    if len(maxima) != 1:
        raise NotMinusculeInput("coroot realization needs a connected poset")
    system = coroot_system(p.diagram)
    j = system.type.numbering_map[p.color(maxima[0])]

    filt = set(coroot_filter(p.diagram, j))
    outside = [b for b in system.positive_coroots() if b not in filt]
    assignment: dict[int, Coroot] = {}
    for x in p.elements:
        word = heap_to_word(p, x)
        seq = inversion_sequence(p.diagram, word)
        assignment[x] = seq[-1]
        assert frozenset(seq) == inversion_set_oracle(p.diagram, word), "inversion sequence mismatch"
        assert all(
            _is_positive(apply_word(system, word, b)) for b in outside
        ), "word moves an outside coroot negative"

    image = set(assignment.values())
    assert image == filt, "image is not the coroot filter"
    assert len(image) == len(p.elements), "coroot assignment is not injective"
    for x, y in itertools.combinations(p.elements, 2):
        assert p.leq(x, y) == all(a <= b for a, b in zip(assignment[y], assignment[x]))
        assert p.leq(y, x) == all(a <= b for a, b in zip(assignment[x], assignment[y]))

    coloring = {assignment[x]: p.color(x) for x in p.elements}
    cposet, ids = coroot_poset(p.diagram, j, coloring)
    assert is_minuscule(cposet)[0], "colored coroot filter is not minuscule"
    return PsiRealization(p, j, assignment, cposet, ids)


# -- the downward extension, one poset per stage ------------------------------


class ColorAbsent(ValueError):
    pass


class NotExtendable(ValueError):
    def __init__(self, color: Color, census: int):
        self.color = color
        self.census = census
        super().__init__(f"census for {color!r} is {census}, extension needs 2")


def _min_of_color(p: ColoredPoset, b: Color) -> int:
    cls = p.color_class(b)
    if not cls:
        raise ColorAbsent(f"color {b!r} does not appear in the poset")
    mins = [x for x in cls if not any(p.lt(y, x) for y in cls)]
    if len(mins) != 1:
        raise ValueError(f"color class {b!r} has {len(mins)} minimal elements")
    return mins[0]


def lower_frontier_census(p: ColoredPoset, b: Color) -> int:
    """Weighted count of adjacent-colored elements below the minimal element
    of the color class of b."""
    o = FrozensetOrder(p)
    return o.census(b, o.lower_frontier(_min_of_color(p, b)))


def extend_by(p: ColoredPoset, *colors: Color) -> ColoredPoset:
    """
    Adjoin one new minimal element of each color (each census must equal 2).

    The new element of color a is covered exactly by the minimal elements of
    L(y, P), where y is the minimal element of color a, which pins the
    extension uniquely.  The colors must be distinct and pairwise
    non-adjacent, as the census-2 colors of a stage are; then no new element
    lies in another's frontier, and adjoining them at once equals adjoining
    them one by one.  New ids follow max(p.elements) in the order given.
    """
    if len(set(colors)) != len(colors):
        raise ValueError(f"repeated color in {colors!r}")
    if any(p.diagram.adjacent(b, c) for b, c in itertools.combinations(colors, 2)):
        raise ValueError(f"adjacent colors in {colors!r}")
    coloring = dict(p.coloring)
    covers = set(p.covers)
    x = max(p.elements)
    o = FrozensetOrder(p)
    for a in colors:
        frontier = o.lower_frontier(_min_of_color(p, a))
        census = o.census(a, frontier)
        if census != 2:
            raise NotExtendable(a, census)
        x += 1
        coloring[x] = a
        covers |= {(x, u) for u in frontier if not any(p.lt(v, u) for v in frontier)}
    return ColoredPoset(p.diagram, coloring, covers)


def assess(p: ColoredPoset) -> Assessment:
    """Decide whether extension terminates, and with which color set it
    continues otherwise, recounting every census."""
    censuses = {b: lower_frontier_census(p, b) for b in p.diagram.colors}
    if all(v <= 1 for v in censuses.values()):
        return Assessment("minuscule")
    over = [b for b in p.diagram.colors if censuses[b] > 2]
    if over:
        b = over[0]
        return Assessment("census_exceeded", witness_color=b, witness_census=censuses[b])
    twos = [b for b in p.diagram.colors if censuses[b] == 2]
    for i, b in enumerate(twos):
        for c in twos[i + 1 :]:
            if p.diagram.adjacent(b, c):
                return Assessment("adjacent_pair", witness_pair=(b, c))
    return Assessment("continue", extension_set=tuple(twos))


def run_extension_oracle(seed: ColoredPoset) -> ExtensionOutcome:
    """Reference `run_extension`: assess and extend with a new poset per stage."""
    if not is_d_complete(seed)[0]:
        raise ValueError("extension seed must be d-complete")
    cap = len(seed.diagram) * STAGE_CAP_FACTOR
    p = seed
    trace: list[StageRecord] = []
    for stage in range(1, cap + 2):
        a = assess(p)
        if a.kind != "continue":
            return ExtensionOutcome(
                p, "minuscule" if a.kind == "minuscule" else "blocked", a, tuple(trace),
                stage, extrapolated=not is_simply_laced(seed.diagram),
            )
        size = len(p)
        p = extend_by(p, *a.extension_set)
        added = tuple((x, p.color(x)) for x in p.elements[size:])
        trace.append(StageRecord(stage, a.extension_set, added))
    raise RuntimeError(f"extension did not terminate within {cap} stages")


# -- the order as frozensets and the pair-scan axiom checkers -----------------


class FrozensetOrder:
    """A colored poset's order closed as frozensets by one topological pass,
    with the queries `ColoredPoset` answered before it kept bitmasks."""

    def __init__(self, p: ColoredPoset) -> None:
        self.p = p
        up: dict[int, list[int]] = {x: [] for x in p.elements}
        down: dict[int, list[int]] = {x: [] for x in p.elements}
        for x, y in p.covers:
            up[x].append(y)
            down[y].append(x)
        waiting = {x: len(down[x]) for x in p.elements}
        order = [x for x in p.elements if not waiting[x]]
        below: dict[int, frozenset[int]] = {}
        for x in order:
            acc = set(down[x])
            for z in down[x]:
                acc |= below[z]
            below[x] = frozenset(acc)
            for y in up[x]:
                waiting[y] -= 1
                if not waiting[y]:
                    order.append(y)
        assert len(order) == len(p.elements), "covers contain a cycle"
        above: dict[int, frozenset[int]] = {}
        for x in reversed(order):
            acc = set(up[x])
            for y in up[x]:
                acc |= above[y]
            above[x] = frozenset(acc)
        self.below, self.above = below, above

    def lt(self, x: int, y: int) -> bool:
        return y in self.above[x]

    def comparable(self, x: int, y: int) -> bool:
        return x == y or self.lt(x, y) or self.lt(y, x)

    def up_set(self, x: int) -> frozenset[int]:
        return self.above[x] | {x}

    def down_set(self, x: int) -> frozenset[int]:
        return self.below[x] | {x}

    def open_interval(self, x: int, y: int) -> frozenset[int]:
        return self.above[x] & self.below[y]

    def color_class(self, a: Color) -> tuple[int, ...]:
        return tuple(x for x in self.p.elements if self.p.coloring[x] == a)

    def induced_covers(self, keep) -> list[tuple[int, int]]:
        kept = sorted(set(keep))
        out = []
        for x in kept:
            above = [y for y in kept if self.lt(x, y)]
            out += [(x, y) for y in above if not any(self.lt(z, y) for z in above)]
        return out

    def consecutive_same_color_pairs(self, a: Color) -> list[tuple[int, int]]:
        return self.induced_covers(self.color_class(a))

    def upper_frontier(self, x: int) -> tuple[int, ...]:
        """U(x, P): elements above x with color adjacent to x's color."""
        p, a = self.p, self.p.coloring[x]
        return tuple(y for y in sorted(self.above[x]) if p.diagram.adjacent(p.coloring[y], a))

    def lower_frontier(self, x: int) -> tuple[int, ...]:
        """L(x, P): elements below x with color adjacent to x's color."""
        p, a = self.p, self.p.coloring[x]
        return tuple(y for y in sorted(self.below[x]) if p.diagram.adjacent(p.coloring[y], a))

    def census(self, a: Color, elements) -> int:
        """The census of a set for color a: the sum of -theta(color(z), a)."""
        return sum(-self.p.diagram.theta(self.p.coloring[z], a) for z in elements)


def _ec_oracle(p: ColoredPoset, o: FrozensetOrder) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        cls = o.color_class(a)
        for i, x in enumerate(cls):
            for y in cls[i + 1 :]:
                if not o.comparable(x, y):
                    bad.append(Witness((x, y), note=f"equal color {a!r}, incomparable"))
    return bad


def _na_oracle(p: ColoredPoset, o: FrozensetOrder) -> list[Witness]:
    bad = []
    for x, y in sorted(p.covers):
        a, b = p.color(x), p.color(y)
        if not p.diagram.adjacent(a, b):
            bad.append(Witness((x, y), note=f"cover with non-adjacent colors {a!r},{b!r}"))
    return bad


def _ac_oracle(p: ColoredPoset, o: FrozensetOrder) -> list[Witness]:
    bad = []
    for i, x in enumerate(p.elements):
        for y in p.elements[i + 1 :]:
            if p.diagram.adjacent(p.color(x), p.color(y)) and not o.comparable(x, y):
                bad.append(Witness((x, y), note="adjacent colors, incomparable"))
    return bad


def _ice2_oracle(p: ColoredPoset, o: FrozensetOrder) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        for x, y in o.consecutive_same_color_pairs(a):
            census = o.census(a, o.open_interval(x, y))
            if census != 2:
                bad.append(Witness((x, y), value=census, note=f"interval census for {a!r}"))
    return bad


def _frontier_oracle(p: ColoredPoset, o: FrozensetOrder, upper: bool, k: int) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        cls = o.color_class(a)
        for x in cls:
            if upper and any(o.lt(x, y) for y in cls):
                continue
            if not upper and any(o.lt(y, x) for y in cls):
                continue
            frontier = o.upper_frontier(x) if upper else o.lower_frontier(x)
            census = o.census(a, frontier)
            if census > k:
                side = "upper" if upper else "lower"
                bad.append(Witness((x,), value=census, note=f"{side} frontier census for {a!r}"))
    return bad


def _s1_oracle(p: ColoredPoset, o: FrozensetOrder) -> list[Witness]:
    bad = []
    for x, y in sorted(p.covers):
        a, b = p.color(x), p.color(y)
        if a != b and not p.diagram.adjacent(a, b):
            bad.append(Witness((x, y), note="neighbors with distant colors"))
    for i, x in enumerate(p.elements):
        for y in p.elements[i + 1 :]:
            if o.comparable(x, y):
                continue
            a, b = p.color(x), p.color(y)
            if a == b or p.diagram.adjacent(a, b):
                bad.append(Witness((x, y), note="incomparable, colors not distant"))
    return bad


def _s2_oracle(p: ColoredPoset, o: FrozensetOrder) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        for x, y in o.consecutive_same_color_pairs(a):
            interval = sorted(o.open_interval(x, y))
            adjacent = [z for z in interval if p.diagram.adjacent(p.color(z), a)]
            two_single = len(adjacent) == 2 and all(
                p.diagram.theta(p.color(z), a) == -1 for z in adjacent
            )
            one_double = len(interval) == 1 and p.diagram.theta(p.color(interval[0]), a) == -2
            if not (two_single or one_double):
                bad.append(Witness((x, y), value=len(adjacent), note=f"interval shape for {a!r}"))
    return bad


def _s3_oracle(p: ColoredPoset, o: FrozensetOrder) -> list[Witness]:
    bad = []
    for a in p.diagram.colors:
        cls = o.color_class(a)
        for x in cls:
            if any(o.lt(x, y) for y in cls):
                continue
            above = covers_of(p, x)
            if len(above) > 1:
                bad.append(Witness((x,) + above, value=len(above), note="covered twice"))
                continue
            if above:
                z = above[0]
                c = p.color(z)
                z_max_in_class = not any(o.lt(z, w) for w in o.color_class(c))
                if p.diagram.theta(c, a) != -1 or not z_max_in_class:
                    bad.append(Witness((x, z), note="cover not a 1-adjacent class maximum"))
    return bad


def _s4_oracle(p: ColoredPoset, o: FrozensetOrder) -> list[Witness]:
    # a simple graph is a forest iff |E| = |V| - #components
    n, m = len(p.diagram), p.diagram.matrix
    edges = sum(1 for i in range(n) for j in range(i + 1, n) if m[i][j] != 0)
    if edges == n - len(p.diagram.components()):
        return []
    return [Witness((), note="diagram has a cycle")]


_ORACLE_CHECKS = {
    "EC": _ec_oracle,
    "NA": _na_oracle,
    "AC": _ac_oracle,
    "ICE2": _ice2_oracle,
    "S1": _s1_oracle,
    "S2": _s2_oracle,
    "S3": _s3_oracle,
    "S4": _s4_oracle,
}


def check_oracle(p: ColoredPoset, prop: str) -> AxiomReport:
    """Reference `axioms.check`: pair scans over the frozenset order, with
    every pairing read through the diagram's lookups."""
    o = FrozensetOrder(p)
    if prop in _ORACLE_CHECKS:
        witnesses = _ORACLE_CHECKS[prop](p, o)
    else:
        side, k = prop[:3], int(prop[3:])
        witnesses = _frontier_oracle(p, o, side == "UCB", k)
    return AxiomReport(prop, not witnesses, tuple(witnesses))


def validate_oracle(colors, table) -> DynkinDiagram:
    """Reference for the `DynkinDiagram` constructor's checks: the checks in
    row-major order over every cell, raising the first violation before the
    diagram is built.  An entry that is not exactly an int is refused first."""
    colors = tuple(colors)
    m = tuple(tuple(row) for row in table)
    n = len(colors)
    for i in range(min(n, len(m))):
        for j in range(min(n, len(m[i]))):
            if type(m[i][j]) is not int:
                a, b = colors[i], colors[j]
                raise DiagramError(f"theta[{a!r}][{b!r}] = {m[i][j]!r} is not an integer")
    if len(set(colors)) != n:
        raise DiagramError("duplicate colors")
    if len(m) != n or any(len(row) != n for row in m):
        raise DiagramError("pairing table is not square over the color set")
    for i, a in enumerate(colors):
        if m[i][i] != 2:
            raise DiagonalNotTwo(f"theta[{a!r}][{a!r}] = {m[i][i]}, expected 2")
        for j, b in enumerate(colors):
            if i == j:
                continue
            if m[i][j] > 0:
                raise PositiveOffDiagonal(f"theta[{a!r}][{b!r}] = {m[i][j]} > 0")
            if (m[i][j] == 0) != (m[j][i] == 0):
                raise AsymmetricZero(
                    f"theta[{a!r}][{b!r}] = {m[i][j]} but theta[{b!r}][{a!r}] = {m[j][i]}"
                )
    return DynkinDiagram(colors, m)


def dropped_cover(p: ColoredPoset, rng: random.Random) -> ColoredPoset:
    """The poset with one random cover removed (still a Hasse diagram)."""
    covers = sorted(p.covers)
    covers.remove(rng.choice(covers))
    return ColoredPoset(p.diagram, p.coloring, covers)


def recolored(p: ColoredPoset, rng: random.Random) -> ColoredPoset:
    """The poset with one element of a class of two or more given another color."""
    movable = [x for x in p.elements if len(p.color_class(p.color(x))) > 1]
    x = rng.choice(movable)
    coloring = dict(p.coloring)
    coloring[x] = rng.choice([c for c in p.diagram.colors if c != p.color(x)])
    return ColoredPoset(p.diagram, coloring, p.covers)


def differential_posets(rng: random.Random) -> Iterator[ColoredPoset]:
    """Inputs on which a fast path must agree with its oracle: random posets,
    random filters of catalog posets, the catalog through rank 8 scrambled,
    dropped-cover and recolored perturbations, order duals and disjoint
    unions."""
    for _ in range(150):
        yield random_colored_poset(rng, 9, 5)
    catalog = [build(fam) for fam in all_family_ids(8)]
    for base in catalog:
        p = scrambled(base, rng)
        yield p
        yield order_dual(p)
        yield random_filter_poset(rng, base)
        if len(p.diagram) >= 2 and len(p.covers) >= 1:
            yield dropped_cover(p, rng)
        if len(p) > len(p.diagram):
            yield recolored(p, rng)
    for _ in range(12):
        parts = [rng.choice(catalog[:30]) for _ in range(rng.randint(2, 4))]
        parts.append(random_colored_poset(rng, 6, 3))
        yield disjoint_union(parts)


# -- the catalog by hand -------------------------------------------------------
# The constructors the catalog used before it walked the orbit of the top
# color's fundamental weight, kept as oracles for `build` and `indexed`.


def _chain(diagram: DynkinDiagram, colors_top_down: list[int]) -> ColoredPoset:
    n = len(colors_top_down)
    coloring = {i + 1: colors_top_down[i] for i in range(n)}
    covers = [(i + 1, i) for i in range(1, n)]  # element i+1 sits below element i
    return ColoredPoset(diagram, coloring, covers)


def _cells(
    diagram: DynkinDiagram, cells: list[tuple[int, int]], color, slant: int
) -> ColoredPoset:
    """The poset on the cells (r, c), numbered 1, 2, .. in the order given, in
    which each cell covers (r, c + 1) and (r + 1, c + slant) where they exist."""
    ids = {rc: x for x, rc in enumerate(cells, 1)}
    coloring = {x: color(*rc) for rc, x in ids.items()}
    covers = [
        (ids[below], x)
        for (r, c), x in ids.items()
        for below in ((r, c + 1), (r + 1, c + slant))
        if below in ids
    ]
    return ColoredPoset(diagram, coloring, covers)


def _grid(diagram: DynkinDiagram, n: int, m: int) -> ColoredPoset:
    """Type A grid for index m: rows 1..m, columns 1..n+1-m, cell (1,1) maximal
    with color m, cell colors m - r + c along diagonals."""
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, n + 2 - m)]
    return _cells(diagram, cells, lambda r, c: m - r + c, 0)


def _type_b(diagram: DynkinDiagram, n: int) -> ColoredPoset:
    """Staircase with rows of lengths n, n-1, .., 1; row cells colored n, n-1, ..
    left to right; unique maximum colored n."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 2 - r)]
    return _cells(diagram, cells, lambda r, c: n + 1 - c, -1)


def _type_d_standard(diagram: DynkinDiagram, n: int) -> ColoredPoset:
    """Chain 1..n-2, the incomparable pair {n-1, n}, then the chain back down."""
    coloring: dict[int, int] = {}
    covers: list[tuple[int, int]] = []
    for i in range(1, n - 1):
        coloring[i] = i
        if i > 1:
            covers.append((i, i - 1))
    top_of_diamond = n - 2
    left, right = n - 1, n
    coloring[left] = n - 1
    coloring[right] = n
    covers += [(left, top_of_diamond), (right, top_of_diamond)]
    prev = [left, right]
    for step, color in enumerate(range(n - 2, 0, -1)):
        x = n + 1 + step
        coloring[x] = color
        for z in prev:
            covers.append((x, z))
        prev = [x]
    return ColoredPoset(diagram, coloring, covers)


def _type_d_spin(diagram: DynkinDiagram, n: int) -> ColoredPoset:
    """Shifted staircase on cells (r, c), 1 <= r <= c <= n-1; the diagonal
    alternates between the fork colors n and n-1 starting from the maximal
    cell (1,1)."""

    def color(r: int, c: int) -> int:
        x = c - r
        if x == 0:
            return n if r % 2 == 1 else n - 1
        if x == 1:
            return n - 2
        return n - 1 - x

    cells = [(r, c) for r in range(1, n) for c in range(r, n)]
    return _cells(diagram, cells, color, 0)


# E6/E7 tables: (element, color, elements covering it), maxima first.
_E6_TABLE = [
    (1, 1, []),
    (2, 2, [1]),
    (3, 3, [2]),
    (4, 4, [3]),
    (5, 6, [3]),
    (6, 5, [4]),
    (7, 3, [4, 5]),
    (8, 4, [6, 7]),
    (9, 2, [7]),
    (10, 3, [8, 9]),
    (11, 1, [9]),
    (12, 6, [10]),
    (13, 2, [10, 11]),
    (14, 3, [12, 13]),
    (15, 4, [14]),
    (16, 5, [15]),
]

_E7_TABLE = [
    (1, 6, []),
    (2, 5, [1]),
    (3, 4, [2]),
    (4, 3, [3]),
    (5, 2, [4]),
    (6, 7, [4]),
    (7, 1, [5]),
    (8, 3, [5, 6]),
    (9, 2, [7, 8]),
    (10, 4, [8]),
    (11, 5, [10]),
    (12, 3, [9, 10]),
    (13, 4, [11, 12]),
    (14, 6, [11]),
    (15, 7, [12]),
    (16, 5, [13, 14]),
    (17, 3, [13, 15]),
    (18, 4, [16, 17]),
    (19, 2, [17]),
    (20, 1, [19]),
    (21, 3, [18, 19]),
    (22, 2, [20, 21]),
    (23, 7, [21]),
    (24, 3, [22, 23]),
    (25, 4, [24]),
    (26, 5, [25]),
    (27, 6, [26]),
]


def _from_table(diagram: DynkinDiagram, table) -> ColoredPoset:
    coloring = {x: c for x, c, _ in table}
    covers = [(x, up) for x, _, ups in table for up in ups]
    return ColoredPoset(diagram, coloring, covers)


# kind -> constructor from the Kac-numbered diagram, n and j
_FAMILY_CONSTRUCTORS = {
    "A_standard": lambda d, n, j: _chain(d, range(1, n + 1)),
    "A_exterior": _grid,
    "B": lambda d, n, j: _type_b(d, n),
    "C": lambda d, n, j: _chain(d, [*range(1, n), *range(n, 0, -1)]),
    "D_standard": lambda d, n, j: _type_d_standard(d, n),
    "D_spin": lambda d, n, j: _type_d_spin(d, n),
    "E6": lambda d, n, j: _from_table(d, _E6_TABLE),
    "E7": lambda d, n, j: _from_table(d, _E7_TABLE),
}


def family_oracle(family: FamilyId) -> ColoredPoset:
    """The family's poset from its hand constructor, colored by Kac numbers."""
    letter = FAMILIES[family.kind][0]
    construct = _FAMILY_CONSTRUCTORS[family.kind]
    return construct(diagram_of_type(letter, family.n), family.n, family.j)


def relabel_colors(p: ColoredPoset, gamma: dict[Color, Color]) -> ColoredPoset:
    """Replace every color c by gamma[c], an automorphism of the diagram."""
    coloring = {x: gamma[c] for x, c in p.coloring.items()}
    return ColoredPoset(p.diagram, coloring, p.covers)


def indexed_oracle(letter: str, n: int, j: int) -> ColoredPoset:
    """The poset of the minuscule index (letter, n, j): its family's hand-built
    poset, relabeled by the diagram involution exchanging its top color and j."""
    base = family_oracle(family_of(letter, n, j))
    top = base.color(base.maximal_elements()[0])
    if top == j:
        return base
    # the involution exchanging the two top colors
    sigma = next(s for s in kac_automorphisms(letter, n) if s[top] == j and s[j] == top)
    return relabel_colors(base, sigma)


def class_chain_renumbered(p: ColoredPoset, q: ColoredPoset) -> ColoredPoset:
    """q with each color class's elements given the ids of p's class of the
    same color, matched along the two class chains from the top down."""
    pi = {
        y: x
        for a in q.diagram.colors
        for x, y in zip(reversed(p.class_chain(a)), reversed(q.class_chain(a)))
    }
    return ColoredPoset(
        q.diagram, {pi[y]: c for y, c in q.coloring.items()}, [(pi[x], pi[y]) for x, y in q.covers]
    )
