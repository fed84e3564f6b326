import itertools
import random

import pytest

from minuscule.catalog import FamilyId, all_family_ids, build, indexed, top_tree_Y
from minuscule.dynkin import DynkinDiagram, is_simply_laced
from minuscule.poset import (
    ColoredPoset,
    PosetError,
    colored_isomorphism,
    component_masks,
    first_linear_extension,
    order_dual,
    top_tree,
)

from helpers import (
    FrozensetOrder,
    NotRanked,
    brute_force_colored_isomorphic,
    brute_force_linear_extension_count,
    ch_set,
    colored_isomorphism_oracle,
    connected_components,
    component_element_sets_oracle,
    differential_posets,
    disjoint_union,
    down_set,
    first_linear_extension_oracle,
    is_filter,
    linear_extensions,
    random_colored_poset,
    rank_function,
    scrambled,
    seed_from_env,
    subposet,
)


def chain(colors):
    d = DynkinDiagram(sorted(set(colors)), [
        [2 if a == b else -1 for b in sorted(set(colors))] for a in sorted(set(colors))
    ]) if len(set(colors)) > 1 else DynkinDiagram(list(set(colors)), [[2]])
    coloring = {i + 1: colors[i] for i in range(len(colors))}
    covers = [(i + 1, i) for i in range(1, len(colors))]
    return ColoredPoset(d, coloring, covers)


def test_constructor_rejects_redundant_cover():
    d = DynkinDiagram(["a", "b", "c"], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    with pytest.raises(PosetError, match=r"cover \(3,1\) is transitively redundant"):
        ColoredPoset(d, {1: "a", 2: "b", 3: "c"}, [(3, 2), (2, 1), (3, 1)])


def test_constructor_rejects_cycle_and_nonsurjective():
    d = DynkinDiagram(["a", "b"], [[2, -1], [-1, 2]])
    with pytest.raises(PosetError, match="covers contain a cycle"):
        ColoredPoset(d, {1: "a", 2: "b"}, [(1, 2), (2, 1)])
    with pytest.raises(PosetError, match="covers contain a cycle"):
        ColoredPoset(d, {1: "a", 2: "b"}, [(1, 1), (1, 2)])
    with pytest.raises(PosetError, match="covers contain a cycle"):
        ColoredPoset(d, {1: "a", 2: "b", 3: "a"}, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(PosetError, match="not surjective"):
        ColoredPoset(d, {1: "a"}, [])


def test_constructor_takes_cover_ids_as_given():
    # a string id is not an element, even one that reads as an element's id
    d = DynkinDiagram(["a", "b"], [[2, -1], [-1, 2]])
    for covers in ([("1", 2)], [(1, "2")], [("1", "2")]):
        with pytest.raises(PosetError, match="uses an unknown element"):
            ColoredPoset(d, {1: "a", 2: "b"}, covers)
    p = ColoredPoset(d, {1: "a", 2: "b"}, [[1, 2]])
    assert p.covers == {(1, 2)} and p.lt(1, 2)


def brute_force_less(elements, covers) -> set[tuple[int, int]]:
    """The strict order generated by the covers, closed by Warshall's algorithm."""
    less = set(covers)
    for z in elements:
        less |= {(x, y) for x in elements if (x, z) in less for y in elements if (z, y) in less}
    return less


def test_order_and_induced_covers_match_brute_force():
    rng = random.Random(seed_from_env())
    for _ in range(60):
        base = random_colored_poset(rng, 10, 4)
        # rename the ids so that they no longer follow any linear extension
        ids = list(range(1, len(base) + 1))
        rng.shuffle(ids)
        rename = dict(zip(base.elements, ids))
        p = ColoredPoset(
            base.diagram,
            {rename[x]: c for x, c in base.coloring.items()},
            [(rename[x], rename[y]) for x, y in base.covers],
        )
        less = brute_force_less(p.elements, p.covers)
        for x, y in itertools.product(p.elements, repeat=2):
            assert p.lt(x, y) == ((x, y) in less)
        keep = [x for x in p.elements if rng.random() < 0.6]
        expected = sorted(
            (x, y) for x, y in less
            if x in keep and y in keep
            and not any((x, z) in less and (z, y) in less for z in keep)
        )
        assert p.induced_covers(keep) == expected
        if keep:
            assert sorted(subposet(p, keep).covers) == expected


def test_order_queries_equal_the_frozenset_oracle():
    rng = random.Random(seed_from_env() + 30)
    for p in differential_posets(rng):
        o = FrozensetOrder(p)
        for x in p.elements:
            assert p.up_set(x) == o.up_set(x)
            assert down_set(p, x) == o.down_set(x)
            covering = {y for z, y in p.covers if z == x}
            assert p.members(p.cover_masks[p.position[x]]) == tuple(sorted(covering))
            covered = tuple(sorted(z for z, y in p.covers if y == x))
            assert p.members(p.lower_cover_masks[p.position[x]]) == covered
            for y in p.elements:
                assert p.lt(x, y) == o.lt(x, y)
                assert p.open_interval(x, y) == o.open_interval(x, y)
        assert p.minimal_elements() == tuple(x for x in p.elements if not o.below[x])
        for a in p.diagram.colors:
            assert p.color_class(a) == o.color_class(a)
            assert p.class_chain(a) == tuple(sorted(o.color_class(a), key=lambda x: len(o.below[x])))
        for _ in range(3):
            keep = [x for x in p.elements if rng.random() < 0.5]
            assert p.induced_covers(keep) == o.induced_covers(keep)
    assert p.color_class("not a color") == ()


def test_connected_components_equal_the_bfs_oracle():
    """On random posets, on posets with one maximal element (each its own only
    component, the mask of all its positions), on scrambled unions and on the
    empty poset; each component poset of the test helper carries exactly the
    covers between its elements, over the diagram restricted to its colors."""
    rng = random.Random(seed_from_env() + 32)
    posets = list(differential_posets(rng))
    for _ in range(40):
        parts = [random_colored_poset(rng, 6, 3) for _ in range(rng.randint(2, 4))]
        posets.append(scrambled(disjoint_union(parts), rng))
    one_top = [build(f) for f in all_family_ids(6)]
    one_top += [order_dual(p) for p in one_top]
    one_top += [p for p in posets if len(p.maximal_elements()) == 1]
    for _ in range(20):
        parts = rng.sample(one_top, rng.randint(2, 4))
        posets.append(scrambled(disjoint_union(parts), rng))
    posets.append(ColoredPoset(DynkinDiagram([], []), {}, []))
    split = 0
    for p in posets + one_top:
        want = [tuple(sorted(comp)) for comp in component_element_sets_oracle(p)]
        masks = component_masks(p)
        assert [p.members(m) for m in masks] == want, p
        comps = connected_components(p)
        assert [c.elements for c in comps] == want, p
        if len(p.maximal_elements()) == 1:
            assert masks == [(1 << len(p)) - 1] and comps == [p]
        for c in comps:
            assert c.covers == {(x, y) for x, y in p.covers if x in c.coloring}
            assert c.diagram == p.diagram.restrict(set(c.coloring.values()))
        split += len(want) > 1
    assert split > 70
    assert sum(len(p.maximal_elements()) == 1 for p in one_top) > 100


def test_redundant_cover_named_as_the_first_in_cover_set_order():
    rng = random.Random(seed_from_env() + 31)
    tried = 0
    for p in differential_posets(rng):
        o = FrozensetOrder(p)
        implied = [(x, y) for x in p.elements for y in o.above[x] if (x, y) not in p.covers]
        if len(implied) < 2:
            continue
        added = rng.sample(implied, min(len(implied), 3))
        covers = list(p.covers) + added
        rng.shuffle(covers)
        # the constructor stores the covers as a frozenset and scans it in its order
        first = next(c for c in frozenset(covers) if c in added)
        with pytest.raises(PosetError) as exc:
            ColoredPoset(p.diagram, p.coloring, covers)
        assert str(exc.value) == f"cover ({first[0]},{first[1]}) is transitively redundant"
        tried += 1
    assert tried > 100


def test_order_dual_involution():
    single = indexed("A", 1, 1)
    assert order_dual(single) == single
    three = chain(["a", "b", "c"])
    dual = order_dual(three)
    assert dual.maximal_elements() == three.minimal_elements()
    rng = random.Random(seed_from_env())
    for _ in range(10):
        p = random_colored_poset(rng, 8, 4)
        assert order_dual(order_dual(p)) == p


def test_top_tree_examples():
    c = chain(["a", "b", "c"])
    assert set(top_tree(c).elements) == set(c.elements)

    e7 = build(FamilyId("E7", 7))
    tree = top_tree(e7)
    assert len(tree.elements) == 7
    assert tree.shape() == (4, 1, 2)
    assert is_filter(tree)

    a42 = indexed("A", 4, 2)
    tree = top_tree(a42)
    assert len(tree.elements) == 4
    assert tree.shape() == (1, 1, 2)

    # an X around s: two elements cover s, so the tree is not a Y
    colors = ["t1", "t2", "s", "l1", "l2"]
    star = DynkinDiagram(colors, [
        [2 if a == b else -1 if "s" in (a, b) else 0 for b in colors] for a in colors
    ])
    x = ColoredPoset(star, dict(zip(range(1, 6), colors)), [(3, 1), (3, 2), (4, 3), (5, 3)])
    assert top_tree(x).splitting_element() == 3
    assert top_tree(x).shape() is None


def test_ch_set_examples():
    c = chain(["a", "b", "c"])
    assert ch_set(c) == frozenset(c.elements)

    d = DynkinDiagram(["a", "b", "c"], [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]])
    v = ColoredPoset(d, {1: "b", 2: "c", 3: "a"}, [(3, 1), (3, 2)])
    assert ch_set(v) == frozenset({1, 2})

    a42 = indexed("A", 4, 2)
    assert ch_set(a42) == frozenset(top_tree(a42).elements)


def test_top_tree_equals_ch_for_simply_laced_catalog():
    for fam in all_family_ids(6):
        p = build(fam)
        if is_simply_laced(p.diagram):
            assert frozenset(top_tree(p).elements) == ch_set(p), str(fam)


def test_top_tree_color_map_is_graph_isomorphism():
    # covers of the top tree map bijectively onto diagram adjacency
    for fam in [FamilyId("A_exterior", 5, 2), FamilyId("D_spin", 6), FamilyId("E6", 6)]:
        p = build(fam)
        tree = top_tree(p)
        edge_colors = {
            frozenset((p.color(x), p.color(y))) for x, y in tree.covers
        }
        diagram_edges = {
            frozenset((a, b))
            for a in p.diagram.colors
            for b in p.diagram.colors
            if a != b and p.diagram.adjacent(a, b)
        }
        assert edge_colors == diagram_edges


def test_linear_extensions_counts():
    assert sum(1 for _ in linear_extensions(chain(["a", "b", "c"]))) == 1
    d = DynkinDiagram(["a", "b"], [[2, 0], [0, 2]])
    anti = ColoredPoset(d, {1: "a", 2: "b"}, [])
    assert sum(1 for _ in linear_extensions(anti)) == 2
    grid = indexed("A", 3, 2)
    assert sum(1 for _ in linear_extensions(grid)) == 2


def test_linear_extensions_against_brute_force():
    rng = random.Random(seed_from_env() + 2)
    for _ in range(12):
        p = random_colored_poset(rng, 7, 4)
        seen = list(linear_extensions(p))
        assert len(seen) == len(set(seen))
        assert len(seen) == brute_force_linear_extension_count(p)
        for ext in seen:
            pos = {x: i for i, x in enumerate(ext)}
            assert all(pos[x] < pos[y] for x, y in p.covers)


def test_first_linear_extension_is_minimal_id_greedy():
    p = indexed("A", 4, 2)
    ext = first_linear_extension(p)
    assert ext[0] == p.minimal_elements()[0]
    assert set(ext) == set(p.elements)


def test_first_linear_extension_equals_the_rescan_oracle():
    rng = random.Random(seed_from_env() + 5)
    catalog = [build(fam) for fam in all_family_ids(8)]
    for p in catalog + list(differential_posets(rng)):
        assert first_linear_extension(p) == first_linear_extension_oracle(p)
        # the up-set of every element, as `psi` reads it, and a random up-set
        ups = [p.up_set(x) for x in p.elements]
        for within in ups + [frozenset().union(*rng.sample(ups, min(3, len(ups))))]:
            assert first_linear_extension(p, within=within) == first_linear_extension_oracle(
                p, within=within
            )
    p = indexed("A", 2, 1)
    for within in ([p.elements[0], p.elements[0]], [p.elements[0], p.elements[0], p.elements[1]]):
        with pytest.raises(PosetError):
            first_linear_extension(p, within=within)
        with pytest.raises(PosetError):
            first_linear_extension_oracle(p, within=within)


def test_colored_isomorphism_identity_and_flip():
    p = indexed("A", 4, 2)
    pi, gamma = colored_isomorphism(p, p)
    assert all(gamma[c] == c for c in p.diagram.colors) or all(
        p.color(pi[x]) == gamma[p.color(x)] for x in p.elements
    )

    a41 = indexed("A", 4, 1)
    a44 = indexed("A", 4, 4)
    result = colored_isomorphism(a41, a44)
    assert result is not None
    _, gamma = result
    assert gamma == {1: 4, 2: 3, 3: 2, 4: 1}


def test_colored_isomorphism_negative():
    two_chain = chain(["a", "b"])
    d = DynkinDiagram(["a", "b"], [[2, 0], [0, 2]])
    anti = ColoredPoset(d, {1: "a", 2: "b"}, [])
    assert colored_isomorphism(two_chain, anti) is None


def test_colored_isomorphism_witnesses_invert():
    p1 = indexed("A", 4, 2)
    p2 = indexed("A", 4, 3)
    pi, gamma = colored_isomorphism(p1, p2)
    inv_pi = {v: k for k, v in pi.items()}
    inv_gamma = {v: k for k, v in gamma.items()}
    for x in p2.elements:
        assert p1.color(inv_pi[x]) == inv_gamma[p2.color(x)]
        for y in p2.elements:
            assert p2.lt(x, y) == p1.lt(inv_pi[x], inv_pi[y])


def test_colored_isomorphism_matches_brute_force():
    rng = random.Random(seed_from_env() + 3)
    hits = 0
    for _ in range(30):
        p1 = random_colored_poset(rng, 5, 3)
        if rng.random() < 0.5:
            # a genuinely isomorphic copy through shuffled ids and colors
            ids = list(p1.elements)
            rng.shuffle(ids)
            remap = dict(zip(p1.elements, ids))
            p2 = ColoredPoset(
                p1.diagram,
                {remap[x]: p1.color(x) for x in p1.elements},
                [(remap[x], remap[y]) for x, y in p1.covers],
            )
        else:
            p2 = random_colored_poset(rng, 5, 3)
        expected = brute_force_colored_isomorphic(p1, p2)
        got = colored_isomorphism(p1, p2)
        assert (got is not None) == expected
        if got is not None:
            hits += 1
            assert_colored_isomorphism(p1, p2, got)
    assert hits >= 5


def assert_colored_isomorphism(p1, p2, witness):
    """pi is a bijection of the elements that carries each color through
    gamma and maps the covers onto the covers, and gamma is a bijection of the
    colors that keeps every pairing."""
    pi, gamma = witness
    assert sorted(pi) == list(p1.elements) and sorted(pi.values()) == list(p2.elements)
    assert list(gamma) == list(p1.diagram.colors)
    assert set(gamma.values()) == set(p2.diagram.colors)
    assert all(p2.color(pi[x]) == gamma[p1.color(x)] for x in p1.elements)
    assert {(pi[x], pi[y]) for x, y in p1.covers} == p2.covers
    d1, d2 = p1.diagram, p2.diagram
    assert all(d1.theta(a, b) == d2.theta(gamma[a], gamma[b]) for a in gamma for b in gamma)


def test_colored_isomorphism_checks_both_cover_directions_and_both_pairings():
    """Two cases the random pairs seldom reach.  In the first, a search that
    checked only the upper covers of each placed element returns a witness
    that maps a cover onto a non-cover.  In the second, the diagrams differ
    only in theta[b][a], which a search that compared only the pairings of a
    new color towards the placed ones never reads."""
    d = DynkinDiagram(["a"], [[2]])
    six = dict.fromkeys(range(6), "a")
    p1 = ColoredPoset(d, six, [(1, 3), (2, 0), (2, 4), (4, 3), (5, 0), (5, 1)])
    p2 = ColoredPoset(d, six, [(0, 2), (1, 4), (1, 5), (3, 0), (3, 4), (5, 2)])
    assert_colored_isomorphism(p1, p2, colored_isomorphism(p1, p2))
    b2 = DynkinDiagram(["a", "b"], [[2, -2], [-1, 2]])
    affine = DynkinDiagram(["a", "b"], [[2, -2], [-2, 2]])
    q1 = ColoredPoset(b2, {1: "b", 2: "a"}, [(2, 1)])
    q2 = ColoredPoset(affine, {1: "b", 2: "a"}, [(2, 1)])
    assert colored_isomorphism(q1, q2) is None and colored_isomorphism(q2, q1) is None


def test_colored_isomorphism_matches_the_search_oracle():
    """Each differential poset against a scrambled copy of itself and against
    another: a witness exactly when the old search finds one, and every
    witness checked on its own."""
    rng = random.Random(seed_from_env() + 4)
    posets = list(differential_posets(rng))
    found = 0
    for p in posets:
        for q in (scrambled(p, rng), rng.choice(posets)):
            got = colored_isomorphism(p, q)
            assert (got is None) == (colored_isomorphism_oracle(p, q) is None)
            if got is not None:
                found += 1
                assert_colored_isomorphism(p, q, got)
    assert found >= len(posets)


def test_rank_function_conventions():
    y211 = top_tree_Y(2, 1, 1)
    ranks = rank_function(y211)
    tree = top_tree(y211)
    s = tree.splitting_element()
    assert ranks[s] == -1
    assert ranks[y211.maximal_elements()[0]] == -2
    assert sorted(ranks[m] for m in y211.minimal_elements()) == [0, 0]

    assert sorted(rank_function(chain(["a", "b", "c"])).values()) == [-2, -1, 0]


def test_rank_function_rejects_unbalanced_cover_cycle():
    # two saturated chains of different lengths between the same pair
    d = DynkinDiagram(
        ["a", "b", "c", "e", "f"],
        [
            [2, -1, -1, 0, 0],
            [-1, 2, 0, 0, -1],
            [-1, 0, 2, -1, 0],
            [0, 0, -1, 2, -1],
            [0, -1, 0, -1, 2],
        ],
    )
    zigzag = ColoredPoset(
        d,
        {1: "a", 2: "b", 3: "c", 4: "e", 5: "f"},
        [(5, 2), (2, 1), (5, 4), (4, 3), (3, 1)],
    )
    with pytest.raises(NotRanked):
        rank_function(zigzag)


def test_every_four_element_poset_is_ranked():
    # exhaustive: no 4-element poset can witness NotRanked
    import itertools as it

    d = DynkinDiagram(["a", "b", "c", "e"], [
        [2, -1, -1, -1],
        [-1, 2, -1, -1],
        [-1, -1, 2, -1],
        [-1, -1, -1, 2],
    ])
    pairs = [(x, y) for x in range(1, 5) for y in range(1, 5) if x != y]
    count = 0
    for rel in it.product([False, True], repeat=len(pairs)):
        less = {p for p, on in zip(pairs, rel) if on}
        if any((y, x) in less for x, y in less):
            continue
        if any(
            (x, z) not in less
            for x, y in less
            for y2, z in less
            if y == y2 and x != z
        ):
            continue
        covers = [
            (x, y)
            for x, y in less
            if not any((x, z) in less and (z, y) in less for z in range(1, 5))
        ]
        coloring = {1: "a", 2: "b", 3: "c", 4: "e"}
        try:
            p = ColoredPoset(d, coloring, covers)
        except PosetError:
            continue
        rank_function(p)  # must not raise
        count += 1
    assert count == 219  # labeled posets on four points


def test_connected_components():
    p = indexed("A", 4, 2)
    assert len(connected_components(p)) == 1
    union = disjoint_union([chain(["a", "b"]), chain(["x", "y", "z"])])
    comps = connected_components(union)
    assert sorted(len(c) for c in comps) == [2, 3]
    for c in comps:
        assert set(c.coloring.values()) == set(c.diagram.colors)


def test_json_round_trip():
    p = build(FamilyId("D_spin", 5))
    again = ColoredPoset.from_json(p.to_json())
    assert colored_isomorphism(p, again) is not None
    assert again.to_json() == ColoredPoset.from_json(again.to_json()).to_json()


def test_json_rejects_unknown_version():
    data = build(FamilyId("B", 2)).to_json()
    data["version"] = 99
    with pytest.raises(PosetError):
        ColoredPoset.from_json(data)


def test_dot_export():
    dot = indexed("A", 3, 2).to_dot()
    assert "digraph" in dot and "shape=box" in dot
